package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// testPair is one generated diffing task together with an independent,
// identically-numbered copy for the sequential reference run: both sides
// are cloned with fresh allocators in the same state, so a deterministic
// differ must produce identical scripts for them.
type testPair struct {
	pair     Pair
	refSrc   *tree.Node
	refDst   *tree.Node
	refAlloc *uri.Allocator
}

func makePairs(tb testing.TB, n int) []testPair {
	tb.Helper()
	pairs := make([]testPair, n)
	for i := range pairs {
		g := exp.NewGen(int64(1000 + i))
		before := g.Tree(80 + 40*(i%4))
		after := g.MutateN(before, 1+i%5)

		allocA := uri.NewAllocator()
		srcA := tree.Clone(before, allocA, tree.SHA256)
		dstA := tree.Clone(after, allocA, tree.SHA256)

		allocB := uri.NewAllocator()
		srcB := tree.Clone(before, allocB, tree.SHA256)
		dstB := tree.Clone(after, allocB, tree.SHA256)

		pairs[i] = testPair{
			pair:     Pair{Source: srcA, Target: dstA, Alloc: allocA},
			refSrc:   srcB,
			refDst:   dstB,
			refAlloc: allocB,
		}
	}
	return pairs
}

func enginePairs(tps []testPair) []Pair {
	ps := make([]Pair, len(tps))
	for i, tp := range tps {
		ps[i] = tp.pair
	}
	return ps
}

// TestBatchMatchesSequential is the engine's core correctness property:
// a concurrent batch produces, pair for pair, exactly the script and
// patched tree a fresh sequential differ produces. Run with -race this
// also exercises the scratch pool under contention.
func TestBatchMatchesSequential(t *testing.T) {
	tps := makePairs(t, 24)
	e := New(exp.Schema(), Config{Workers: 8})
	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	d := truediff.New(exp.Schema())
	for i, tp := range tps {
		if results[i].Err != nil {
			t.Fatalf("pair %d: %v", i, results[i].Err)
		}
		want, err := d.Diff(tp.refSrc, tp.refDst, tp.refAlloc)
		if err != nil {
			t.Fatalf("pair %d sequential: %v", i, err)
		}
		got := results[i].Result
		if !reflect.DeepEqual(got.Script.Edits, want.Script.Edits) {
			t.Errorf("pair %d: batch script differs from sequential script\nbatch: %v\nseq:   %v",
				i, got.Script.Edits, want.Script.Edits)
		}
		if !tree.Equal(got.Patched, want.Patched) {
			t.Errorf("pair %d: batch patched tree differs from sequential", i)
		}
		if !tree.Equal(got.Patched, tp.pair.Target) {
			t.Errorf("pair %d: patched tree does not equal the target", i)
		}
	}
}

// TestScratchRecyclingLeavesNoTrace runs two identical batches through a
// single-worker engine, so the second batch demonstrably runs on recycled
// scratch state (registry, assignment map, edit buffer, heap). Any state
// leaking across diffs would perturb the second batch's scripts.
func TestScratchRecyclingLeavesNoTrace(t *testing.T) {
	first := makePairs(t, 12)
	second := makePairs(t, 12) // identical by construction (same seeds)

	e := New(exp.Schema(), Config{Workers: 1})
	r1, err := e.DiffBatch(context.Background(), enginePairs(first))
	if err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	r2, err := e.DiffBatch(context.Background(), enginePairs(second))
	if err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	for i := range r1 {
		if r1[i].Err != nil || r2[i].Err != nil {
			t.Fatalf("pair %d: errs %v / %v", i, r1[i].Err, r2[i].Err)
		}
		if !reflect.DeepEqual(r1[i].Result.Script.Edits, r2[i].Result.Script.Edits) {
			t.Errorf("pair %d: recycled scratch changed the script", i)
		}
	}
	if snap := e.Snapshot(); snap.PoolHitRate <= 0 {
		t.Errorf("pool hit rate = %v, want > 0 after %d diffs on 1 worker", snap.PoolHitRate, snap.Diffs)
	}
}

// TestDiffBatchCancel checks that a cancelled context stops the batch: the
// call reports the cancellation and pairs that never ran carry it as their
// error.
func TestDiffBatchCancel(t *testing.T) {
	tps := makePairs(t, 64)
	e := New(exp.Schema(), Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	results, err := e.DiffBatch(ctx, enginePairs(tps))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DiffBatch error = %v, want context.Canceled", err)
	}
	skipped := 0
	for _, r := range results {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no pair carries the cancellation error")
	}
}

// TestErrorsSurfacePerPair checks that a failing pair does not fail the
// batch: its slot carries a typed error and the other pairs complete.
func TestErrorsSurfacePerPair(t *testing.T) {
	tps := makePairs(t, 2)

	foreign := sig.NewSchema("foreign")
	foreign.MustDeclare(sig.Sig{Tag: "Alien", Result: "Thing"})
	falloc := uri.NewAllocator()
	alien, err := tree.New(foreign, falloc, "Alien", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	pairs := []Pair{
		tps[0].pair,
		{Source: nil, Target: tps[1].pair.Target},
		{Source: alien, Target: tps[1].pair.Target, Alloc: falloc},
	}
	e := New(exp.Schema(), Config{Workers: 4})
	results, err := e.DiffBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Errorf("healthy pair failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, derrors.ErrNilTree) {
		t.Errorf("nil-source pair: err = %v, want ErrNilTree", results[1].Err)
	}
	if !errors.Is(results[2].Err, derrors.ErrSchemaMismatch) {
		t.Errorf("foreign-schema pair: err = %v, want ErrSchemaMismatch", results[2].Err)
	}
	if snap := e.Snapshot(); snap.Errors != 2 {
		t.Errorf("Snapshot().Errors = %d, want 2", snap.Errors)
	}
}

// TestSnapshotCounters checks the instrumentation a batch leaves behind.
func TestSnapshotCounters(t *testing.T) {
	tps := makePairs(t, 16)
	e := New(exp.Schema(), Config{Workers: 4})
	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	snap := e.Snapshot()
	if snap.Diffs != 16 {
		t.Errorf("Diffs = %d, want 16", snap.Diffs)
	}
	if snap.Batches != 1 {
		t.Errorf("Batches = %d, want 1", snap.Batches)
	}
	if snap.PoolGets != 16 {
		t.Errorf("PoolGets = %d, want 16", snap.PoolGets)
	}
	if snap.PoolMisses > snap.PoolGets {
		t.Errorf("PoolMisses = %d > PoolGets = %d", snap.PoolMisses, snap.PoolGets)
	}
	var edits, srcN, dstN int
	for _, r := range results {
		edits += r.Stats.Edits
		srcN += r.Stats.SourceSize
		dstN += r.Stats.TargetSize
		if r.Stats.Wall <= 0 {
			t.Error("per-diff wall time not recorded")
		}
		if r.Stats.ReuseRatio < 0 || r.Stats.ReuseRatio > 1 {
			t.Errorf("ReuseRatio = %v out of range", r.Stats.ReuseRatio)
		}
	}
	if snap.Edits != uint64(edits) {
		t.Errorf("Edits = %d, want sum of per-diff edits %d", snap.Edits, edits)
	}
	if snap.SourceNodes != uint64(srcN) || snap.TargetNodes != uint64(dstN) {
		t.Errorf("node totals = %d+%d, want %d+%d", snap.SourceNodes, snap.TargetNodes, srcN, dstN)
	}
	if snap.NodesPerSecond() <= 0 {
		t.Error("NodesPerSecond should be positive after a batch")
	}
	if snap.String() == "" {
		t.Error("empty snapshot rendering")
	}
}

// TestIngestMatchesClone is the differential check for Ingest with a
// caller-owned allocator. Whichever way the engine takes a tree in —
// copying digests that are already SHA-256, or rehashing FNV-64 ones — the
// result must be, node by node, what tree.Clone produces with SHA-256 from
// an allocator in the same state: the same tags, literals, post-order
// URIs, and both digests. Source and target share one allocator as they
// do in a real pair.
func TestIngestMatchesClone(t *testing.T) {
	for _, in := range []tree.HashKind{tree.SHA256, tree.FNV64} {
		e := New(exp.Schema(), Config{})
		g := exp.NewGen(int64(7 + 10*in))
		for i := 0; i < 4; i++ {
			before := tree.Clone(g.Tree(40+60*i), uri.NewAllocator(), in)
			after := tree.Clone(g.MutateN(before, 1+i), uri.NewAllocator(), in)

			alloc, ref := uri.NewAllocator(), uri.NewAllocator()
			for _, orig := range []*tree.Node{before, after} {
				got := e.Ingest(orig, alloc)
				want := tree.Clone(orig, ref, tree.SHA256)
				if msg := nodeMismatch(got, want); msg != "" {
					t.Fatalf("input %d, tree %d: %s", in, i, msg)
				}
			}
		}
		if snap := e.Snapshot(); snap.IngestedTrees != 8 {
			t.Errorf("input %d: %d trees ingested, want 8", in, snap.IngestedTrees)
		}
	}
}

// nodeMismatch walks got and want in lockstep and describes the first node
// whose tag, URI, literals, kid count, size, height, or digests differ, or
// returns "" when the trees agree everywhere.
func nodeMismatch(got, want *tree.Node) string {
	switch {
	case got.Tag != want.Tag:
		return fmt.Sprintf("tag %s, want %s", got.Tag, want.Tag)
	case got.URI != want.URI:
		return fmt.Sprintf("%s: URI %d, want %d", want.Tag, got.URI, want.URI)
	case len(got.Lits) != len(want.Lits) || len(got.Kids) != len(want.Kids):
		return fmt.Sprintf("%s#%d: arity differs", want.Tag, want.URI)
	case got.Size() != want.Size() || got.Height() != want.Height():
		return fmt.Sprintf("%s#%d: size/height %d/%d, want %d/%d",
			want.Tag, want.URI, got.Size(), got.Height(), want.Size(), want.Height())
	case got.StructHash() != want.StructHash() || got.LitHash() != want.LitHash():
		return fmt.Sprintf("%s#%d: digests differ", want.Tag, want.URI)
	}
	for i := range want.Lits {
		if !tree.LitEqual(got.Lits[i], want.Lits[i]) {
			return fmt.Sprintf("%s#%d: literal %d is %v, want %v", want.Tag, want.URI, i, got.Lits[i], want.Lits[i])
		}
	}
	for i := range want.Kids {
		if msg := nodeMismatch(got.Kids[i], want.Kids[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// TestVersionChainBatch diffs a version chain in one batch: each version is
// ingested once, with a nil allocator, and one pointer serves as the Target
// of pair i and the Source of pair i+1, concurrently. Every pair has a nil
// Alloc, so each draws its loads from an allocator of its own. The scripts
// must be well-typed and patch each source into its target.
func TestVersionChainBatch(t *testing.T) {
	g := exp.NewGen(11)
	const steps = 8
	versions := make([]*tree.Node, steps+1)
	versions[0] = g.Tree(150)
	for i := 1; i <= steps; i++ {
		versions[i] = g.MutateN(versions[i-1], 1+i%3)
	}

	e := New(g.Schema(), Config{Workers: 4})
	ingested := make([]*tree.Node, len(versions))
	for i, v := range versions {
		ingested[i] = e.Ingest(v, nil)
	}
	pairs := make([]Pair, steps)
	for i := range pairs {
		pairs[i] = Pair{Source: ingested[i], Target: ingested[i+1]}
	}
	results, err := e.DiffBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pair %d: %v", i, r.Err)
		}
		if err := truechange.WellTyped(g.Schema(), r.Result.Script); err != nil {
			t.Errorf("pair %d: script ill-typed: %v", i, err)
		}
		if !tree.Equal(r.Result.Patched, versions[i+1]) {
			t.Errorf("pair %d: patched tree does not equal the target version", i)
		}
		mt, err := mtree.FromTree(g.Schema(), pairs[i].Source)
		if err != nil {
			t.Fatalf("pair %d: FromTree: %v", i, err)
		}
		if err := mt.Patch(r.Result.Script); err != nil {
			t.Errorf("pair %d: script does not apply to its source: %v", i, err)
		} else if !mt.EqualTree(versions[i+1]) {
			t.Errorf("pair %d: patching the source does not yield the target", i)
		}
	}
	if snap := e.Snapshot(); snap.IngestedTrees != steps+1 {
		t.Errorf("IngestedTrees = %d, want %d (each version once)", snap.IngestedTrees, steps+1)
	}
}

// TestIdenticalPairShortCircuits checks the pointer-equality fast path: a
// pair with one tree on both sides yields an empty script without running
// the diff at all.
func TestIdenticalPairShortCircuits(t *testing.T) {
	g := exp.NewGen(12)
	v := g.Tree(100)
	e := New(g.Schema(), Config{})
	src := e.Ingest(v, nil)

	res, err := e.Diff(context.Background(), src, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Script.Len() != 0 {
		t.Errorf("identical pair produced %d edits, want 0", res.Script.Len())
	}
	if res.Patched != src {
		t.Error("identical pair should return the source as the patched tree")
	}
	snap := e.Snapshot()
	if snap.PoolGets != 0 {
		t.Errorf("identical pair checked out scratch state (%d gets)", snap.PoolGets)
	}
	if snap.Diffs != 1 {
		t.Errorf("Diffs = %d, want 1 (fast path still counts)", snap.Diffs)
	}
}

// TestNilAllocMatchesSequential pins that a script is a function of its
// pair. Trees ingested with nil allocators (each copy numbered from 1) and
// diffed with nil Pair.Allocs give, edit for edit and URIs included, the
// script of a sequential differ given a nil allocator too, and a second
// batch on the same engine, after an unrelated diff, gives the same
// scripts again. Against the same content diffed under caller allocators,
// the scripts have the same per-kind edit counts and equal patched
// content; only URI numbering may differ.
func TestNilAllocMatchesSequential(t *testing.T) {
	tps := makePairs(t, 6)
	e := New(exp.Schema(), Config{Workers: 2})

	managed := make([]Pair, len(tps))
	for i, tp := range tps {
		managed[i] = Pair{
			Source: e.Ingest(tp.refSrc, nil),
			Target: e.Ingest(tp.refDst, nil),
		}
	}
	mres, err := e.DiffBatch(context.Background(), managed)
	if err != nil {
		t.Fatalf("managed batch: %v", err)
	}
	eres, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("explicit batch: %v", err)
	}
	d := truediff.New(exp.Schema())
	for i := range tps {
		if mres[i].Err != nil || eres[i].Err != nil {
			t.Fatalf("pair %d: errs %v / %v", i, mres[i].Err, eres[i].Err)
		}
		ms := truechange.ComputeStats(mres[i].Result.Script)
		es := truechange.ComputeStats(eres[i].Result.Script)
		if !reflect.DeepEqual(ms, es) {
			t.Errorf("pair %d: managed script stats %+v differ from explicit %+v", i, ms, es)
		}
		if !tree.Equal(mres[i].Result.Patched, eres[i].Result.Patched) {
			t.Errorf("pair %d: managed and explicit patched trees differ in content", i)
		}

		want, err := d.Diff(managed[i].Source, managed[i].Target, nil)
		if err != nil {
			t.Fatalf("pair %d sequential: %v", i, err)
		}
		if !truechange.EqualEdits(mres[i].Result.Script.Edits, want.Script.Edits) {
			t.Errorf("pair %d: nil-alloc script differs from sequential\nengine: %v\nseq:    %v",
				i, mres[i].Result.Script.Edits, want.Script.Edits)
		}
	}

	// An unrelated diff, then the same pairs again.
	g := exp.NewGen(77)
	x := g.Tree(90)
	if _, err := e.Diff(context.Background(), e.Ingest(x, nil), e.Ingest(g.MutateN(x, 4), nil), nil); err != nil {
		t.Fatalf("unrelated diff: %v", err)
	}
	again, err := e.DiffBatch(context.Background(), managed)
	if err != nil {
		t.Fatalf("second managed batch: %v", err)
	}
	for i := range managed {
		if again[i].Err != nil {
			t.Fatalf("pair %d, second batch: %v", i, again[i].Err)
		}
		if !truechange.EqualEdits(again[i].Result.Script.Edits, mres[i].Result.Script.Edits) {
			t.Errorf("pair %d: second batch changed the script\nfirst:  %v\nsecond: %v",
				i, mres[i].Result.Script.Edits, again[i].Result.Script.Edits)
		}
	}
}

// TestEngineDiffSingle covers the non-batch entry point.
func TestEngineDiffSingle(t *testing.T) {
	tps := makePairs(t, 1)
	e := New(exp.Schema(), Config{})
	res, err := e.Diff(context.Background(), tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(res.Patched, tps[0].pair.Target) {
		t.Error("patched tree does not equal target")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Diff(ctx, tps[0].refSrc, tps[0].refDst, tps[0].refAlloc); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Diff: err = %v, want context.Canceled", err)
	}
}
