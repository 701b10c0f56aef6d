package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/derrors"
	"repro/internal/truechange"
	"repro/internal/truediff"
)

// Fault-injection sites the engine exposes. Arm them on the injector passed
// through Config.Faults to rehearse the engine's failure paths
// deterministically (see internal/faultinject):
//
//   - FaultSiteDiff is hit once per diff, inside the panic-isolation
//     boundary, before the algorithm runs. A Panic fault here exercises
//     panic recovery; an Error fault a plain diff failure; a Delay fault
//     (combined with DiffTimeout) a per-diff deadline overrun.
//   - FaultSiteCheckpoint is hit on every cancellation checkpoint poll, so
//     a fault armed here aborts a diff mid-algorithm.
const (
	FaultSiteDiff       = "engine/diff"
	FaultSiteCheckpoint = "engine/checkpoint"
)

// FallbackMode selects what the engine does when a diff fails in a way the
// caller cannot anticipate: a panic inside the algorithm, a per-diff
// deadline overrun, or an ill-typed output script.
type FallbackMode int

const (
	// FallbackNone (the default) propagates the failure as the pair's Err.
	FallbackNone FallbackMode = iota
	// FallbackRootReplace degrades to a synthesized root-replacement
	// script (truediff.Differ.RootReplace): maximally verbose, but
	// well-typed by construction and guaranteed to patch source into
	// target. Pairs served this way have Stats.Fallback set and count into
	// Snapshot.Fallbacks. Cancellation (the batch context going away) is
	// never rescued: the caller asked the work to stop.
	FallbackRootReplace
)

// PanicError is the typed error a recovered per-diff panic surfaces as: the
// recovered value plus the goroutine stack at the point of the panic. It
// matches derrors.ErrDiffPanic via errors.Is.
type PanicError struct {
	Value any    // the value the diff panicked with
	Stack []byte // debug.Stack() captured in the recovering frame
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: %v: %v", derrors.ErrDiffPanic, e.Value)
}

func (e *PanicError) Unwrap() error { return derrors.ErrDiffPanic }

// checkpoint builds the cooperative-cancellation hook for one diff:
// truediff.CtxCheckpoint over ctx and Config.DiffTimeout, wrapped to hit
// FaultSiteCheckpoint first when a fault injector is armed. It is nil when
// nothing could interrupt the diff, so the differ keeps its unchecked fast
// path.
func (e *Engine) checkpoint(ctx context.Context) truediff.Checkpoint {
	cp := truediff.CtxCheckpoint(ctx, e.cfg.DiffTimeout)
	inj := e.cfg.Faults
	if inj == nil {
		return cp
	}
	return func() error {
		if err := inj.Hit(FaultSiteCheckpoint); err != nil {
			return err
		}
		if cp == nil {
			return nil
		}
		return cp()
	}
}

// runDiff executes the diff algorithm for one pair inside the engine's
// panic-isolation boundary: a panic anywhere under it — the differ, a
// tracer callback, an injected fault — is recovered into a *PanicError
// instead of unwinding the worker goroutine, so one poisoned pair cannot
// take down a batch. The pooled scratch is safe to recycle afterwards
// because every diff begins by resetting it.
func (e *Engine) runDiff(ctx context.Context, p Pair, s *truediff.Scratch) (res *truediff.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := e.cfg.Faults.Hit(FaultSiteDiff); ferr != nil {
		return nil, fmt.Errorf("engine: %w", ferr)
	}
	return e.differ.DiffScratch(ctx, p.Source, p.Target, p.Alloc, s, e.checkpoint(ctx))
}

// classify counts a failed diff into the failure-mode counters. It runs
// before any fallback decision, so rescued failures still show up in
// Snapshot.Panics / Snapshot.Timeouts.
func (e *Engine) classify(err error) {
	switch {
	case errors.Is(err, derrors.ErrDiffPanic):
		e.m.panics.Add(1)
	case errors.Is(err, derrors.ErrDiffTimeout):
		e.m.timeouts.Add(1)
	}
}

// shouldFallback reports whether a failure is eligible for graceful
// degradation: panics, per-diff timeouts, and ill-typed output scripts
// are; cancellation is not (the caller asked the work to stop,
// synthesizing a script would defeat that), and neither are ordinary
// input errors (nil trees, schema mismatches), which RootReplace would
// reject just the same.
func (e *Engine) shouldFallback(err error) bool {
	if e.cfg.Fallback != FallbackRootReplace {
		return false
	}
	return errors.Is(err, derrors.ErrDiffPanic) ||
		errors.Is(err, derrors.ErrDiffTimeout) ||
		errors.Is(err, derrors.ErrIllTyped)
}

// fallback synthesizes the degradation result for a pair whose diff failed
// (or produced an ill-typed script). The root-replacement script needs no
// search, so it is not subject to the per-diff deadline; it can still fail
// on invalid inputs, in which case the original error stands augmented
// with the fallback's.
func (e *Engine) fallback(p Pair, cause error) (*truediff.Result, error) {
	res, err := e.differ.RootReplace(p.Source, p.Target, p.Alloc)
	if err != nil {
		return nil, fmt.Errorf("%w (fallback also failed: %v)", cause, err)
	}
	e.m.fallbacks.Add(1)
	return res, nil
}

// wellTypedOut verifies the script of a successful diff against the linear
// type system when graceful degradation is enabled: a fallback-mode caller
// has declared they want a usable script even when the algorithm
// misbehaves, so the engine spends the extra typecheck pass to catch
// ill-typed output and degrade instead of handing it over. (Without
// fallback the check is skipped: Theorem 3.6 makes ill-typed output a bug,
// and the caller will see the typecheck fail wherever they consume the
// script.)
func (e *Engine) wellTypedOut(res *truediff.Result) error {
	if e.cfg.Fallback != FallbackRootReplace {
		return nil
	}
	if err := truechange.WellTyped(e.sch, res.Script); err != nil {
		return fmt.Errorf("engine: diff emitted ill-typed script: %w", err)
	}
	return nil
}
