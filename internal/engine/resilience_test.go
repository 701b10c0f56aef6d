package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/mtree"
	"repro/internal/truechange"
	"repro/internal/truediff"
)

// TestPanicIsolation injects a panic into the fourth of eight diffs on one
// engine and checks that (a) only that pair fails, with a *PanicError
// matching derrors.ErrDiffPanic and carrying the stack, (b) every other
// pair succeeds, and (c) the panic counter moves.
func TestPanicIsolation(t *testing.T) {
	tps := makePairs(t, 8)
	inj := faultinject.New(1, faultinject.Fault{
		Site: FaultSiteDiff, Kind: faultinject.Panic, After: 3, Times: 1,
	})
	e := New(exp.Schema(), Config{Faults: inj})

	results := diffEach(context.Background(), e, enginePairs(tps))
	failed := 0
	for i, pr := range results {
		if pr.Err == nil {
			if pr.Result == nil {
				t.Fatalf("pair %d has neither Result nor Err", i)
			}
			continue
		}
		failed++
		if !errors.Is(pr.Err, derrors.ErrDiffPanic) {
			t.Errorf("pair %d error %v does not match ErrDiffPanic", i, pr.Err)
		}
		var pe *PanicError
		if !errors.As(pr.Err, &pe) {
			t.Errorf("pair %d error %T is not a *PanicError", i, pr.Err)
		} else {
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack")
			}
			if !bytes.Contains(pe.Stack, []byte("goroutine")) {
				t.Error("PanicError stack does not look like a goroutine dump")
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d pairs failed, want exactly 1", failed)
	}
	s := e.Snapshot()
	if s.Panics != 1 {
		t.Errorf("Snapshot.Panics = %d, want 1", s.Panics)
	}
	if s.Errors != 1 {
		t.Errorf("Snapshot.Errors = %d, want 1", s.Errors)
	}
}

// diffDeadline returns a context whose deadline, d from now, has a cause
// matching derrors.ErrDiffTimeout: a per-diff timeout, as diffd sets one.
func diffDeadline(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, derrors.ErrDiffTimeout)
	t.Cleanup(cancel)
	return ctx
}

// TestDiffTimeout aborts a diff via an injected delay that overruns its
// context's deadline, and checks the error and counter.
func TestDiffTimeout(t *testing.T) {
	tps := makePairs(t, 1)
	inj := faultinject.New(1, faultinject.Fault{
		Site: FaultSiteDiff, Kind: faultinject.Delay, Delay: 50 * time.Millisecond, Times: 1,
	})
	e := New(exp.Schema(), Config{Faults: inj})
	_, err := e.Diff(diffDeadline(t, 10*time.Millisecond), tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, derrors.ErrDiffTimeout) {
		t.Fatalf("Diff under deadline overrun = %v, want ErrDiffTimeout", err)
	}
	if s := e.Snapshot(); s.Timeouts != 1 {
		t.Errorf("Snapshot.Timeouts = %d, want 1", s.Timeouts)
	}
	// A deadline that passed before the call fails it with the same cause.
	_, err = e.Diff(diffDeadline(t, -time.Second), tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, derrors.ErrDiffTimeout) {
		t.Fatalf("Diff past its deadline = %v, want ErrDiffTimeout", err)
	}
}

// TestFallbackRootReplace exercises graceful degradation on both rescue
// paths — a panic and a timeout — and checks the synthesized script
// patches source into target, the pair reports Fallback, and the failure
// counters still record the underlying failure. Each pair runs through
// DiffPair under a deadline of its own, as diffd runs a job.
func TestFallbackRootReplace(t *testing.T) {
	tps := makePairs(t, 4)
	inj := faultinject.New(1,
		faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Panic, After: 1, Times: 1},
		faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Delay, Delay: 100 * time.Millisecond, After: 2, Times: 1},
	)
	e := New(exp.Schema(), Config{Fallback: FallbackRootReplace, Faults: inj})
	results := make([]PairResult, len(tps))
	for i, tp := range tps {
		results[i] = e.DiffPair(diffDeadline(t, 25*time.Millisecond), tp.pair)
	}
	fallbacks := 0
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair %d failed despite fallback: %v", i, pr.Err)
		}
		if !pr.Stats.Fallback {
			continue
		}
		fallbacks++
		if err := truechange.WellTyped(e.Schema(), pr.Result.Script); err != nil {
			t.Errorf("pair %d fallback script ill-typed: %v", i, err)
		}
		mt, err := mtree.FromTree(e.Schema(), tps[i].pair.Source)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(pr.Result.Script); err != nil {
			t.Errorf("pair %d fallback script does not patch: %v", i, err)
		} else if !mt.EqualTree(tps[i].pair.Target) {
			t.Errorf("pair %d fallback patch differs from target", i)
		}
		if pr.Stats.ReuseRatio != 0 {
			t.Errorf("pair %d fallback ReuseRatio = %v, want 0 (nothing reused)", i, pr.Stats.ReuseRatio)
		}
	}
	if fallbacks != 2 {
		t.Fatalf("%d pairs fell back, want 2 (one panic, one timeout)", fallbacks)
	}
	s := e.Snapshot()
	if s.Panics != 1 || s.Timeouts != 1 || s.Fallbacks != 2 {
		t.Errorf("Snapshot panics/timeouts/fallbacks = %d/%d/%d, want 1/1/2", s.Panics, s.Timeouts, s.Fallbacks)
	}
	if s.Errors != 0 {
		t.Errorf("Snapshot.Errors = %d, want 0 (all pairs rescued)", s.Errors)
	}
}

// TestFallbackDoesNotRescueCancellation: cancelling the context, or a
// plain deadline overrunning a running diff, must abort the pair even
// under FallbackRootReplace — the caller asked the work to stop.
func TestFallbackDoesNotRescueCancellation(t *testing.T) {
	tps := makePairs(t, 1)
	inj := faultinject.New(1, faultinject.Fault{
		Site: FaultSiteDiff, Kind: faultinject.Delay, Delay: 50 * time.Millisecond, Times: 1,
	})
	e := New(exp.Schema(), Config{Fallback: FallbackRootReplace, Faults: inj})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Diff(ctx, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Diff on cancelled ctx = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if pr := e.DiffPair(ctx, tps[0].pair); !errors.Is(pr.Err, context.DeadlineExceeded) {
		t.Fatalf("pair past a plain deadline: err = %v, want context.DeadlineExceeded", pr.Err)
	}
	if s := e.Snapshot(); s.Fallbacks != 0 || s.Timeouts != 0 {
		t.Errorf("cancellation was rescued or counted: Fallbacks = %d, Timeouts = %d", s.Fallbacks, s.Timeouts)
	}
}

// TestInjectedErrorFailsPairWithoutFallback: a plain injected error is an
// ordinary failure — not eligible for degradation even in fallback mode.
func TestInjectedErrorFailsPairWithoutFallback(t *testing.T) {
	tps := makePairs(t, 1)
	inj := faultinject.New(1, faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Error, Times: 1})
	e := New(exp.Schema(), Config{Fallback: FallbackRootReplace, Faults: inj})
	_, err := e.Diff(nil, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Diff = %v, want ErrInjected", err)
	}
	if s := e.Snapshot(); s.Fallbacks != 0 || s.Errors != 1 {
		t.Errorf("Fallbacks/Errors = %d/%d, want 0/1", s.Fallbacks, s.Errors)
	}
}

// TestNilContextNormalized: both entry points accept a nil ctx (treated as
// context.Background()).
func TestNilContextNormalized(t *testing.T) {
	tps := makePairs(t, 2)
	e := New(exp.Schema(), Config{})
	if _, err := e.Diff(nil, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc); err != nil {
		t.Fatalf("Diff(nil ctx): %v", err)
	}
	if pr := e.DiffPair(nil, tps[1].pair); pr.Err != nil || pr.Result == nil {
		t.Fatalf("DiffPair(nil ctx): %+v", pr)
	}
}

// TestResilientBatchMatchesSequential: under a deadline that never fires,
// concurrent diffs under FallbackRootReplace still produce exactly the
// scripts a plain differ does — the resilience layer is observationally
// transparent on the happy path.
func TestResilientBatchMatchesSequential(t *testing.T) {
	tps := makePairs(t, 12)
	e := New(exp.Schema(), Config{Fallback: FallbackRootReplace})
	results := diffConcurrently(diffDeadline(t, time.Minute), e, enginePairs(tps))
	d := truediff.New(exp.Schema())
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair %d: %v", i, pr.Err)
		}
		if pr.Stats.Fallback {
			t.Errorf("pair %d fell back on the happy path", i)
		}
		want, err := d.Diff(tps[i].refSrc, tps[i].refDst, tps[i].refAlloc)
		if err != nil {
			t.Fatalf("pair %d sequential: %v", i, err)
		}
		if pr.Result.Script.String() != want.Script.String() {
			t.Errorf("pair %d script differs from sequential reference", i)
		}
	}
}
