package structdiff_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// buildPair returns two small expression trees plus their schema and
// allocator, built purely through the public facade surface.
func buildPair(t *testing.T) (src, dst *structdiff.Node, sch *structdiff.Schema, alloc *structdiff.Allocator) {
	t.Helper()
	g := exp.NewGen(42)
	before := g.Tree(60)
	after := g.MutateN(before, 3)
	alloc = structdiff.NewAllocator()
	src = structdiff.Clone(before, alloc, structdiff.SHA256)
	dst = structdiff.Clone(after, alloc, structdiff.SHA256)
	return src, dst, g.Schema(), alloc
}

func TestDiffPatchRoundTrip(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if err := structdiff.WellTyped(sch, res.Script); err != nil {
		t.Fatalf("script not well-typed: %v", err)
	}
	patched, err := structdiff.Patch(src, res.Script, structdiff.WithSchema(sch))
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !structdiff.TreesEqual(patched, res.Patched) {
		t.Error("Patch result differs from Diff's patched tree")
	}
	st := structdiff.ComputeStats(res.Script)
	if st.Compound != res.Script.EditCount() {
		t.Error("stats compound count disagrees with EditCount")
	}
}

func TestDiffRequiresSchema(t *testing.T) {
	src, dst, _, _ := buildPair(t)
	if _, err := structdiff.Diff(src, dst); !errors.Is(err, structdiff.ErrNoSchema) {
		t.Errorf("Diff without schema: err = %v, want ErrNoSchema", err)
	}
	if _, err := structdiff.Patch(src, &structdiff.Script{}); !errors.Is(err, structdiff.ErrNoSchema) {
		t.Errorf("Patch without schema: err = %v, want ErrNoSchema", err)
	}
	if _, err := structdiff.NewEngine(nil); !errors.Is(err, structdiff.ErrNoSchema) {
		t.Errorf("NewEngine without schema: err = %v, want ErrNoSchema", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	src, dst, sch, _ := buildPair(t)

	if _, err := structdiff.Diff(nil, dst, structdiff.WithSchema(sch)); !errors.Is(err, structdiff.ErrNilTree) {
		t.Errorf("nil source: err = %v, want ErrNilTree", err)
	}

	foreign := structdiff.NewSchema("foreign")
	if _, err := structdiff.Diff(src, dst, structdiff.WithSchema(foreign)); !errors.Is(err, structdiff.ErrSchemaMismatch) {
		t.Errorf("foreign schema: err = %v, want ErrSchemaMismatch", err)
	}

	// An ill-typed script: a lone detach leaves a dangling subtree.
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Script.Edits) > 0 {
		truncated := &structdiff.Script{Edits: res.Script.Edits[:1]}
		if err := structdiff.WellTyped(sch, truncated); !errors.Is(err, structdiff.ErrIllTyped) {
			t.Errorf("truncated script: err = %v, want ErrIllTyped", err)
		}
		// Applying a script against the wrong base tree is non-compliant.
		if _, err := structdiff.Patch(dst, res.Script, structdiff.WithSchema(sch)); !errors.Is(err, structdiff.ErrNonCompliantScript) {
			t.Errorf("script on wrong base: err = %v, want ErrNonCompliantScript", err)
		}
	}

	// A two-to-one matching is rejected.
	pairs := []structdiff.MatchPair{{Src: src, Dst: dst}, {Src: src, Dst: dst}}
	if _, err := structdiff.DiffWithMatching(src, dst, pairs, structdiff.WithSchema(sch)); !errors.Is(err, structdiff.ErrBadMatching) {
		t.Errorf("double matching: err = %v, want ErrBadMatching", err)
	}
}

func TestDiffOptionsChangeBehaviour(t *testing.T) {
	src, dst, sch, _ := buildPair(t)
	base, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := structdiff.Diff(src, dst,
		structdiff.WithSchema(sch),
		structdiff.WithEquivalence(structdiff.ExactOnly),
		structdiff.WithSelectionOrder(structdiff.FIFO))
	if err != nil {
		t.Fatal(err)
	}
	// Both must be valid; the ablation may be less concise but never
	// beats exact reuse by construction on these mutations.
	if err := structdiff.WellTyped(sch, exact.Script); err != nil {
		t.Fatalf("ablation script ill-typed: %v", err)
	}
	if base.Script.EditCount() > exact.Script.EditCount() {
		t.Errorf("paper config (%d edits) less concise than ExactOnly/FIFO ablation (%d edits)",
			base.Script.EditCount(), exact.Script.EditCount())
	}
}

func TestEngineThroughFacade(t *testing.T) {
	g := exp.NewGen(7)
	sch := g.Schema()
	e, err := structdiff.NewEngine(sch)
	if err != nil {
		t.Fatal(err)
	}

	var pairs []structdiff.Pair
	before := g.Tree(80)
	for i := 0; i < 6; i++ {
		after := g.MutateN(before, 2)
		alloc := structdiff.NewAllocator()
		src := structdiff.CloneKeepDigests(before, alloc)
		dst := structdiff.CloneKeepDigests(after, alloc)
		pairs = append(pairs, structdiff.Pair{Source: src, Target: dst, Alloc: alloc})
		before = after
	}
	// One goroutine per pair, all sharing the engine: the way a caller
	// diffs in parallel.
	results := make([]structdiff.PairResult, len(pairs))
	var wg sync.WaitGroup
	wg.Add(len(pairs))
	for i := range pairs {
		go func(i int) {
			defer wg.Done()
			results[i] = e.DiffPair(context.Background(), pairs[i])
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pair %d: %v", i, r.Err)
		}
		if !structdiff.TreesEqual(r.Result.Patched, pairs[i].Target) {
			t.Errorf("pair %d: patched != target", i)
		}
	}
	snap := e.Snapshot()
	if snap.Diffs != uint64(len(pairs)) {
		t.Errorf("Snapshot().Diffs = %d, want %d", snap.Diffs, len(pairs))
	}
}
