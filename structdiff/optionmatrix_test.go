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
// timeout (including zero and invalid negative values) × fault injection —
// and checks each cell against the documented outcome:
//
//   - no fault: every pair succeeds, whatever the other options;
//   - an injected Error fault is an ordinary diff failure: never rescued
//     by fallback, always reported as ErrFaultInjected;
//   - an injected Panic fault is rescued by FallbackRootReplace and
//     reported as ErrDiffPanic under FallbackNone;
//   - an injected Delay fault only matters when it overruns an armed
//     deadline: then the pair times out (ErrDiffTimeout) under
//     FallbackNone and is rescued under FallbackRootReplace;
//   - zero and negative timeouts disable the deadline rather than erroring;
//   - with tracing on, every pair gets one "engine.diff" span, failed
//     ones included; clean runs add the four phase spans per pair, and no
//     run adds more (an aborted diff reports only the phases it finished,
//     a fallback script none).
func TestOptionMatrix(t *testing.T) {
	const nPairs = 3

	type outcome int
	const (
		wantOK outcome = iota
		wantFallback
		wantErrInjected
		wantErrPanic
		wantErrTimeout
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
		{"timeout=-1s", -time.Second}, // invalid: must behave as disabled
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
			Site: structdiff.FaultSiteCheckpoint, Kind: structdiff.FaultDelay, Delay: 150 * time.Millisecond,
			Times: nPairs, // one delay per pair, not per checkpoint poll
		}},
	}

	expect := func(fb structdiff.FallbackMode, to time.Duration, fault string) outcome {
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
				return wantOK // no (effective) deadline: the delay just runs
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
						opts := []structdiff.Option{
							structdiff.WithWorkers(2),
							structdiff.WithFallback(fb.mode),
							structdiff.WithDiffTimeout(to.d),
							structdiff.WithCheckpointEvery(1),
						}
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
						results, err := eng.DiffBatch(context.Background(), pairs)
						if err != nil {
							t.Fatalf("DiffBatch: %v", err)
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
							case wantErrTimeout:
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
							if diffs != nPairs {
								t.Fatalf("recorded %d engine.diff spans, want %d", diffs, nPairs)
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
		structdiff.WithDiffTimeout(-time.Hour), // negative: disabled
		structdiff.WithCheckpointEvery(-5),     // negative: default cadence
		structdiff.WithWorkers(-3),             // negative: GOMAXPROCS
		structdiff.WithSpans(nil),              // nil sink: no tracing
		structdiff.WithFaultInjection(nil),     // nil injector: no faults
		structdiff.WithSlowDiffThreshold(-1),   // negative: disabled
	)
	if err != nil {
		t.Fatalf("Diff with degenerate options: %v", err)
	}
	if err := structdiff.WellTyped(sch, res.Script); err != nil {
		t.Fatalf("script ill-typed: %v", err)
	}

	// The same degenerate values must also be harmless at engine build
	// time, batch size zero included.
	eng, err := structdiff.NewEngine(sch,
		structdiff.WithWorkers(0),
		structdiff.WithDiffTimeout(-time.Hour),
		structdiff.WithCheckpointEvery(0),
		structdiff.WithFallback(structdiff.FallbackMode(99)), // unknown mode: behaves as none
	)
	if err != nil {
		t.Fatalf("NewEngine with degenerate options: %v", err)
	}
	results, err := eng.DiffBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty DiffBatch: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}
