package structdiff_test

import (
	"testing"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// patchPair diffs a generated pair of trees of the given digest kind, both
// numbered from one allocator, and returns the source, target, script and
// allocator.
func patchPair(t *testing.T, seed int64, kind structdiff.HashKind) (src, dst *structdiff.Node, res *structdiff.Result, sch *structdiff.Schema, alloc *structdiff.Allocator) {
	t.Helper()
	g := exp.NewGen(seed)
	before := g.Tree(60)
	after := g.MutateN(before, 3)
	alloc = structdiff.NewAllocator()
	src = structdiff.Clone(before, alloc, kind)
	dst = structdiff.Clone(after, alloc, kind)
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(g.Schema()), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst, res, g.Schema(), alloc
}

// TestPatchKeepsHashKind: Patch rebuilds the nodes a script changed with the
// source's digest kind, so patching FNV-64 trees yields an FNV-64 tree equal
// to the target, as patching SHA-256 trees yields a SHA-256 one.
func TestPatchKeepsHashKind(t *testing.T) {
	for _, kind := range []structdiff.HashKind{structdiff.SHA256, structdiff.FNV64} {
		src, dst, res, sch, _ := patchPair(t, 42, kind)
		patched, err := structdiff.Patch(src, res.Script, structdiff.WithSchema(sch))
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		other := 0
		structdiff.Walk(patched, func(n *structdiff.Node) {
			if !structdiff.HashedWith(n, kind) {
				other++
			}
		})
		if other > 0 {
			t.Errorf("kind %v: %d nodes of the patched tree carry another digest kind", kind, other)
		}
		if !structdiff.TreesEqual(patched, dst) {
			t.Errorf("kind %v: patched tree differs from the target", kind)
		}
	}
}

// TestPatchAdvancesAllocatorToResultOnly: given WithAllocator, Patch moves
// the allocator past the URIs of the tree it returns and no further.
func TestPatchAdvancesAllocatorToResultOnly(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		src, _, res, sch, alloc := patchPair(t, seed, structdiff.SHA256)
		before := alloc.Peek()
		patched, err := structdiff.Patch(src, res.Script, structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var top structdiff.URI
		structdiff.Walk(patched, func(n *structdiff.Node) { top = max(top, n.URI) })
		if got, want := alloc.Peek(), max(before, top); got != want {
			t.Errorf("seed %d: Peek after Patch = %d, want %d (Peek before %d, largest URI of the result %d)",
				seed, got, want, before, top)
		}
	}
}
