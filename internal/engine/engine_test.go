package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
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

// diffConcurrently runs every pair through DiffPair on a goroutine of its
// own, all sharing e and ctx, and returns the results index-aligned with
// pairs: the way a caller diffs in parallel.
func diffConcurrently(ctx context.Context, e *Engine, pairs []Pair) []PairResult {
	results := make([]PairResult, len(pairs))
	var wg sync.WaitGroup
	wg.Add(len(pairs))
	for i := range pairs {
		go func(i int) {
			defer wg.Done()
			results[i] = e.DiffPair(ctx, pairs[i])
		}(i)
	}
	wg.Wait()
	return results
}

// diffEach runs the pairs through DiffPair one after another, in order.
func diffEach(ctx context.Context, e *Engine, pairs []Pair) []PairResult {
	results := make([]PairResult, len(pairs))
	for i, p := range pairs {
		results[i] = e.DiffPair(ctx, p)
	}
	return results
}

// TestBatchMatchesSequential is the engine's core correctness property:
// concurrent DiffPair calls on one engine produce, pair for pair, exactly
// the script and patched tree a fresh sequential differ produces. Run
// with -race this also exercises the scratch pool under contention.
func TestBatchMatchesSequential(t *testing.T) {
	tps := makePairs(t, 24)
	e := New(exp.Schema(), Config{})
	results := diffConcurrently(context.Background(), e, enginePairs(tps))

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
			t.Errorf("pair %d: engine script differs from sequential script\nengine: %v\nseq:    %v",
				i, got.Script.Edits, want.Script.Edits)
		}
		if !tree.Equal(got.Patched, want.Patched) {
			t.Errorf("pair %d: engine patched tree differs from sequential", i)
		}
		if !tree.Equal(got.Patched, tp.pair.Target) {
			t.Errorf("pair %d: patched tree does not equal the target", i)
		}
	}
}

// TestScratchRecyclingLeavesNoTrace runs the same pairs twice, one diff at
// a time, so the second round demonstrably runs on recycled scratch state
// (registry, assignment map, edit buffer, heap). Any state leaking across
// diffs would perturb the second round's scripts.
func TestScratchRecyclingLeavesNoTrace(t *testing.T) {
	first := makePairs(t, 12)
	second := makePairs(t, 12) // identical by construction (same seeds)

	e := New(exp.Schema(), Config{})
	r1 := diffEach(context.Background(), e, enginePairs(first))
	r2 := diffEach(context.Background(), e, enginePairs(second))
	for i := range r1 {
		if r1[i].Err != nil || r2[i].Err != nil {
			t.Fatalf("pair %d: errs %v / %v", i, r1[i].Err, r2[i].Err)
		}
		if !reflect.DeepEqual(r1[i].Result.Script.Edits, r2[i].Result.Script.Edits) {
			t.Errorf("pair %d: recycled scratch changed the script", i)
		}
	}
	if snap := e.Snapshot(); snap.PoolHitRate <= 0 {
		t.Errorf("pool hit rate = %v, want > 0 after %d diffs in sequence", snap.PoolHitRate, snap.Diffs)
	}
}

// TestErrorsSurfacePerPair checks that a failing pair fails alone: its
// result carries a typed error and the pairs diffed beside it complete.
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
	e := New(exp.Schema(), Config{})
	results := diffConcurrently(context.Background(), e, pairs)
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

// TestSnapshotCounters checks the instrumentation concurrent diffs leave
// behind.
func TestSnapshotCounters(t *testing.T) {
	tps := makePairs(t, 16)
	e := New(exp.Schema(), Config{})
	results := diffConcurrently(context.Background(), e, enginePairs(tps))

	snap := e.Snapshot()
	if snap.Diffs != 16 {
		t.Errorf("Diffs = %d, want 16", snap.Diffs)
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
		t.Error("NodesPerSecond should be positive after 16 diffs")
	}
	if snap.String() == "" {
		t.Error("empty snapshot rendering")
	}
}

// freshCopy copies x, keeping its digests, with URIs numbered in post-order
// from 1, as diffd numbers each uploaded tree.
func freshCopy(x *tree.Node) *tree.Node { return tree.CloneKeepDigests(x, uri.NewAllocator()) }

// TestVersionChainBatch diffs a version chain, every pair at once: each
// version is copied once, numbered from 1, and one pointer serves as the
// Target of pair i and the Source of pair i+1, concurrently. Every pair
// has a nil Alloc, so each draws its loads from an allocator of its own.
// The scripts must be well-typed and patch each source into its target.
func TestVersionChainBatch(t *testing.T) {
	g := exp.NewGen(11)
	const steps = 8
	versions := make([]*tree.Node, steps+1)
	versions[0] = g.Tree(150)
	for i := 1; i <= steps; i++ {
		versions[i] = g.MutateN(versions[i-1], 1+i%3)
	}

	e := New(g.Schema(), Config{})
	copies := make([]*tree.Node, len(versions))
	for i, v := range versions {
		copies[i] = freshCopy(v)
	}
	pairs := make([]Pair, steps)
	for i := range pairs {
		pairs[i] = Pair{Source: copies[i], Target: copies[i+1]}
	}
	results := diffConcurrently(context.Background(), e, pairs)
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
}

// TestIdenticalPairShortCircuits checks the pointer-equality fast path: a
// pair with one tree on both sides yields an empty script without running
// the diff at all.
func TestIdenticalPairShortCircuits(t *testing.T) {
	g := exp.NewGen(12)
	v := g.Tree(100)
	e := New(g.Schema(), Config{})
	src := freshCopy(v)

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
// pair. Trees copied from fresh allocators (each copy numbered from 1) and
// diffed with nil Pair.Allocs give, edit for edit and URIs included, the
// script of a sequential differ given a nil allocator too, and a second
// round on the same engine, after an unrelated diff, gives the same
// scripts again. Against the same content diffed under caller allocators,
// the scripts have the same per-kind edit counts and equal patched
// content; only URI numbering may differ.
func TestNilAllocMatchesSequential(t *testing.T) {
	tps := makePairs(t, 6)
	e := New(exp.Schema(), Config{})

	managed := make([]Pair, len(tps))
	for i, tp := range tps {
		managed[i] = Pair{
			Source: freshCopy(tp.refSrc),
			Target: freshCopy(tp.refDst),
		}
	}
	mres := diffConcurrently(context.Background(), e, managed)
	eres := diffConcurrently(context.Background(), e, enginePairs(tps))
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
	if _, err := e.Diff(context.Background(), freshCopy(x), freshCopy(g.MutateN(x, 4)), nil); err != nil {
		t.Fatalf("unrelated diff: %v", err)
	}
	again := diffConcurrently(context.Background(), e, managed)
	for i := range managed {
		if again[i].Err != nil {
			t.Fatalf("pair %d, second round: %v", i, again[i].Err)
		}
		if !truechange.EqualEdits(again[i].Result.Script.Edits, mres[i].Result.Script.Edits) {
			t.Errorf("pair %d: second round changed the script\nfirst:  %v\nsecond: %v",
				i, mres[i].Result.Script.Edits, again[i].Result.Script.Edits)
		}
	}
}

// TestEngineDiffSingle covers Diff, the entry point that takes a pair by
// its parts.
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
