package structdiff_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// TestOptionMatrix exercises the facade's engine options as a full cross
// product — tracing (WithSpans, the tracer axis) × fallback × per-diff
// deadline × fault injection — and checks each cell against the
// documented outcome. Each pair runs through DiffPair, as diffd runs a
// job, under a context of its own whose deadline, when the cell sets one,
// has the cause ErrDiffTimeout: none (timeout=0), one that passed before
// the call (timeout=-1s), 25 ms or 1 min from the call.
//
//   - no fault: every pair succeeds, whatever the other options;
//   - an injected Error fault is an ordinary diff failure: never rescued
//     by fallback, always reported as ErrFaultInjected;
//   - an injected Panic fault is rescued by FallbackRootReplace and
//     reported as ErrDiffPanic under FallbackNone;
//   - an injected Delay fault only matters when it overruns the deadline:
//     then the pair times out (ErrDiffTimeout) under FallbackNone and is
//     rescued under FallbackRootReplace;
//   - a deadline that passed before the call fails the call with its
//     cause: no diff runs, so no fault fires and nothing is rescued;
//   - with tracing on, every diff that runs gets one "engine.diff" span,
//     failed ones included; clean runs add the four phase spans per pair,
//     and no run adds more (an aborted diff reports only the phases it
//     finished, a fallback script none).
func TestOptionMatrix(t *testing.T) {
	const nPairs = 3

	type outcome int
	const (
		wantOK outcome = iota
		wantFallback
		wantErrInjected
		wantErrPanic
		wantErrTimeout
		wantErrExpired
	)

	tracers := []struct{ name string }{{"tracer=off"}, {"tracer=on"}}
	fallbacks := []struct {
		name string
		mode structdiff.FallbackMode
	}{
		{"fallback=none", structdiff.FallbackNone},
		{"fallback=rootreplace", structdiff.FallbackRootReplace},
	}
	timeouts := []struct {
		name string
		d    time.Duration
	}{
		{"timeout=0", 0},
		{"timeout=-1s", -time.Second},
		{"timeout=25ms", 25 * time.Millisecond},
		{"timeout=1m", time.Minute},
	}
	faults := []struct {
		name  string
		fault *structdiff.Fault
	}{
		{"fault=none", nil},
		{"fault=error", &structdiff.Fault{Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultError}},
		{"fault=panic", &structdiff.Fault{Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultPanic}},
		{"fault=delay", &structdiff.Fault{
			Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultDelay, Delay: 150 * time.Millisecond,
		}},
	}

	expect := func(fb structdiff.FallbackMode, to time.Duration, fault string) outcome {
		if to < 0 {
			return wantErrExpired
		}
		switch fault {
		case "fault=error":
			return wantErrInjected // plain errors are deliberately not rescued
		case "fault=panic":
			if fb == structdiff.FallbackRootReplace {
				return wantFallback
			}
			return wantErrPanic
		case "fault=delay":
			if to != 25*time.Millisecond {
				return wantOK // no deadline, or a distant one: the delay just runs
			}
			if fb == structdiff.FallbackRootReplace {
				return wantFallback
			}
			return wantErrTimeout
		default:
			return wantOK
		}
	}

	g := exp.NewGen(7)
	before := g.Tree(60)
	sch := g.Schema()
	pairs := make([]structdiff.Pair, nPairs)
	for i := range pairs {
		after := g.MutateN(before, 2)
		pairs[i] = structdiff.Pair{Source: before, Target: after, Label: fmt.Sprintf("pair-%d", i)}
		before = after
	}

	for _, trc := range tracers {
		for _, fb := range fallbacks {
			for _, to := range timeouts {
				for _, ft := range faults {
					name := trc.name + "/" + fb.name + "/" + to.name + "/" + ft.name
					want := expect(fb.mode, to.d, ft.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						opts := []structdiff.Option{structdiff.WithFallback(fb.mode)}
						var rec *structdiff.SpanRecorder
						if trc.name == "tracer=on" {
							rec = structdiff.NewSpanRecorder()
							opts = append(opts, structdiff.WithSpans(rec))
						}
						if ft.fault != nil {
							opts = append(opts,
								structdiff.WithFaultInjection(structdiff.NewFaultInjector(1, *ft.fault)))
						}
						eng, err := structdiff.NewEngine(sch, opts...)
						if err != nil {
							t.Fatal(err)
						}
						results := make([]structdiff.PairResult, nPairs)
						for i := range pairs {
							ctx := context.Background()
							if to.d != 0 {
								var cancel context.CancelFunc
								ctx, cancel = context.WithTimeoutCause(ctx, to.d, structdiff.ErrDiffTimeout)
								defer cancel()
							}
							results[i] = eng.DiffPair(ctx, pairs[i])
						}
						for i, r := range results {
							switch want {
							case wantOK, wantFallback:
								if r.Err != nil {
									t.Fatalf("pair %d failed: %v", i, r.Err)
								}
								if r.Stats.Fallback != (want == wantFallback) {
									t.Fatalf("pair %d: Stats.Fallback = %v, want %v",
										i, r.Stats.Fallback, want == wantFallback)
								}
								if err := structdiff.WellTyped(sch, r.Result.Script); err != nil {
									t.Fatalf("pair %d: script ill-typed: %v", i, err)
								}
								patched, err := structdiff.Patch(pairs[i].Source, r.Result.Script,
									structdiff.WithSchema(sch))
								if err != nil {
									t.Fatalf("pair %d: patch: %v", i, err)
								}
								if !structdiff.StructurallyEquivalent(patched, pairs[i].Target) ||
									!structdiff.LiterallyEquivalent(patched, pairs[i].Target) {
									t.Fatalf("pair %d: patched tree differs from target", i)
								}
							case wantErrInjected:
								if !errors.Is(r.Err, structdiff.ErrFaultInjected) {
									t.Fatalf("pair %d: err = %v, want ErrFaultInjected", i, r.Err)
								}
							case wantErrPanic:
								if !errors.Is(r.Err, structdiff.ErrDiffPanic) {
									t.Fatalf("pair %d: err = %v, want ErrDiffPanic", i, r.Err)
								}
							case wantErrTimeout, wantErrExpired:
								if !errors.Is(r.Err, structdiff.ErrDiffTimeout) {
									t.Fatalf("pair %d: err = %v, want ErrDiffTimeout", i, r.Err)
								}
							}
						}
						if rec != nil {
							diffs, phases := 0, 0
							for _, sp := range rec.Spans() {
								switch {
								case sp.Name == "engine.diff":
									diffs++
								case strings.HasPrefix(sp.Name, "truediff."):
									phases++
								}
							}
							ran := nPairs
							if want == wantErrExpired {
								ran = 0
							}
							if diffs != ran {
								t.Fatalf("recorded %d engine.diff spans, want %d", diffs, ran)
							}
							if want == wantOK && phases != structdiff.NumPhases*nPairs {
								t.Fatalf("recorded %d phase spans, want %d", phases, structdiff.NumPhases*nPairs)
							}
							if phases > structdiff.NumPhases*nPairs {
								t.Fatalf("recorded %d phase spans for %d pairs", phases, nPairs)
							}
						}
					})
				}
			}
		}
	}
}

// TestOptionsInvalidValues pins down the facade's tolerance for zero and
// out-of-range option values on the single-shot path: they must be
// normalized, not crash or error.
func TestOptionsInvalidValues(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	res, err := structdiff.Diff(src, dst,
		structdiff.WithSchema(sch),
		structdiff.WithAllocator(alloc),
		structdiff.WithSpans(nil),            // nil sink: no tracing
		structdiff.WithFaultInjection(nil),   // nil injector: no faults
		structdiff.WithSlowDiffThreshold(-1), // negative: disabled
	)
	if err != nil {
		t.Fatalf("Diff with degenerate options: %v", err)
	}
	if err := structdiff.WellTyped(sch, res.Script); err != nil {
		t.Fatalf("script ill-typed: %v", err)
	}

	// An unknown fallback mode must also be harmless at engine build time
	// and on the engine's diffs.
	eng, err := structdiff.NewEngine(sch,
		structdiff.WithFallback(structdiff.FallbackMode(99)), // unknown mode: behaves as none
	)
	if err != nil {
		t.Fatalf("NewEngine with degenerate options: %v", err)
	}
	pr := eng.DiffPair(context.Background(), structdiff.Pair{Source: src, Target: dst})
	if pr.Err != nil {
		t.Fatalf("DiffPair with an unknown fallback mode: %v", pr.Err)
	}
	if err := structdiff.WellTyped(sch, pr.Result.Script); err != nil {
		t.Fatalf("engine script ill-typed: %v", err)
	}
}
