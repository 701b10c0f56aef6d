package truediff

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/mtree"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
)

// cancelAfterShares cancels its context, with cause, once the diff
// reports step 2 finished, and records the phases it saw.
type cancelAfterShares struct {
	cancel context.CancelCauseFunc
	cause  error
	seen   []telemetry.Phase
}

func (c *cancelAfterShares) Phase(p telemetry.Phase, _ time.Duration) {
	c.seen = append(c.seen, p)
	if p == telemetry.PhaseShares {
		c.cancel(c.cause)
	}
}

// abortAfterShares diffs src into dst through s under a context that is
// cancelled, with cause, between steps 2 and 3, and returns the phases its
// tracer saw and the diff's outcome.
func abortAfterShares(d *Differ, src, dst *tree.Node, s *Scratch, cause error) ([]telemetry.Phase, *Result, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	tr := &cancelAfterShares{cancel: cancel, cause: cause}
	res, err := d.DiffScratch(telemetry.ContextWithTracer(ctx, tr), src, dst, nil, s)
	return tr.seen, res, err
}

// TestCancelBetweenStepsAborts: a context cancelled between two steps stops
// the diff before the next step, however few nodes the finished steps
// processed, and the error wraps the context's cause.
func TestCancelBetweenStepsAborts(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, int64(0))
	dst := b.MustN(exp.Num, int64(1))
	for i := 0; i < 200; i++ {
		src = b.MustN(exp.Add, src, b.MustN(exp.Num, int64(i)))
		dst = b.MustN(exp.Add, dst, b.MustN(exp.Num, int64(i+1)))
	}

	sentinel := errors.New("stop now")
	seen, res, err := abortAfterShares(New(exp.Schema()), src, dst, NewScratch(), sentinel)
	if res != nil || err == nil {
		t.Fatalf("DiffScratch returned a result (err %v), want abort", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("abort error %v does not wrap the context's cause", err)
	}
	if want := []telemetry.Phase{telemetry.PhasePrepare, telemetry.PhaseShares}; !slices.Equal(seen, want) {
		t.Fatalf("tracer saw phases %v, want %v", seen, want)
	}
}

// TestPollEveryNodes: within a step, a run polls its context once every
// pollEvery nodes it processes, so a context cancelled just after a poll
// is seen pollEvery nodes later, and not before.
func TestPollEveryNodes(t *testing.T) {
	sentinel := errors.New("stop now")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := &run{ctx: ctx, done: ctx.Done(), left: pollEvery}
	tick := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = p.(diffAbort).err
			}
		}()
		r.tick()
		return nil
	}
	for i := 1; i <= pollEvery; i++ { // the last tick polls a live context
		if err := tick(); err != nil {
			t.Fatalf("node %d: aborted under a live context: %v", i, err)
		}
	}
	cancel(sentinel)
	for i := 1; i < pollEvery; i++ {
		if err := tick(); err != nil {
			t.Fatalf("aborted %d nodes after the cancel, before %d", i, pollEvery)
		}
	}
	if err := tick(); !errors.Is(err, sentinel) {
		t.Fatalf("%d nodes after the cancel: abort %v, want the context's cause", pollEvery, err)
	}
}

func TestScratchReusableAfterAbort(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, int64(0))
	dst := b.MustN(exp.Num, int64(1))
	for i := 0; i < 64; i++ {
		src = b.MustN(exp.Add, src, b.MustN(exp.Num, int64(i)))
		dst = b.MustN(exp.Add, dst, b.MustN(exp.Num, int64(2*i)))
	}
	d := New(exp.Schema())
	s := NewScratch()

	abort := errors.New("abort")
	if _, _, err := abortAfterShares(d, src, dst, s, abort); !errors.Is(err, abort) {
		t.Fatalf("expected abort, got %v", err)
	}

	// The same scratch must produce a correct script afterwards.
	res, err := d.DiffScratch(context.Background(), src, dst, nil, s)
	if err != nil {
		t.Fatalf("diff after abort: %v", err)
	}
	if err := truechange.WellTyped(d.sch, res.Script); err != nil {
		t.Fatalf("script after abort ill-typed: %v", err)
	}
	mt, err := mtree.FromTree(d.sch, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(res.Script); err != nil {
		t.Fatalf("patch after abort: %v", err)
	}
	if !mt.EqualTree(dst) {
		t.Fatal("patched tree differs from target after scratch reuse")
	}
}

func TestDiffCtxCancellation(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	dst := b.MustN(exp.Add, b.MustN(exp.Num, int64(2)), b.MustN(exp.Num, int64(1)))
	d := New(exp.Schema())

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: even a 3-node diff must abort on entry
	if _, err := d.DiffScratch(ctx, src, dst, nil, NewScratch()); !errors.Is(err, context.Canceled) {
		t.Fatalf("diff on cancelled ctx = %v, want context.Canceled", err)
	}

	// A background context is never polled and gives Diff's script.
	got, err := d.DiffScratch(context.Background(), src, dst, nil, NewScratch())
	if err != nil {
		t.Fatalf("diff on background ctx failed: %v", err)
	}
	want, err := d.Diff(src, dst, nil)
	if err != nil {
		t.Fatalf("plain diff failed: %v", err)
	}
	if got.Script.String() != want.Script.String() {
		t.Fatal("diff on a background ctx produced a different script from Diff")
	}
}

func TestRootReplaceWellTypedAndPatches(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add,
		b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b")),
		b.MustN(exp.Num, int64(7)))
	dst := b.MustN(exp.Mul, b.MustN(exp.Var, "a"), b.MustN(exp.Num, int64(9)))

	d := New(exp.Schema())
	res, err := d.RootReplace(src, dst, b.Alloc())
	if err != nil {
		t.Fatalf("RootReplace: %v", err)
	}
	if err := truechange.WellTyped(d.sch, res.Script); err != nil {
		t.Fatalf("root-replace script ill-typed: %v", err)
	}
	// Maximally verbose: every source node unloaded, every target node
	// loaded, plus the root detach/attach.
	if got, want := res.Script.Len(), src.Size()+dst.Size()+2; got != want {
		t.Fatalf("script has %d operations, want %d", got, want)
	}
	mt, err := mtree.FromTree(d.sch, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(res.Script); err != nil {
		t.Fatalf("patching root-replace script: %v", err)
	}
	if !mt.EqualTree(dst) {
		t.Fatalf("root-replace patch differs from target:\n%s\n%s", mt, dst)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Fatalf("tree not closed after root replace: %v", err)
	}
}

func TestRootReplaceNilTrees(t *testing.T) {
	d := New(exp.Schema())
	b := exp.NewBuilder()
	n := b.MustN(exp.Num, int64(1))
	if _, err := d.RootReplace(nil, n, nil); err == nil {
		t.Fatal("RootReplace(nil, n) succeeded")
	}
	if _, err := d.RootReplace(n, nil, nil); err == nil {
		t.Fatal("RootReplace(n, nil) succeeded")
	}
}
