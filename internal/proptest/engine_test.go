package proptest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/truechange"

	"repro/structdiff"
)

// collectPairs generates n proptest pairs and adapts them to engine tasks.
// The pairs share the generator's allocator, which is not concurrency-safe
// across a batch, so each task gets Alloc nil: each diff then numbers its
// loads past every URI of its source, as the facade's Diff does without
// WithAllocator.
func collectPairs(gen Generator, cfg Config, n int) ([]Pair, []structdiff.Pair) {
	run := NewRun(gen, cfg)
	ps := make([]Pair, n)
	eps := make([]structdiff.Pair, n)
	for i := 0; i < n; i++ {
		ps[i] = run.Next()
		eps[i] = structdiff.Pair{Source: ps[i].Source, Target: ps[i].Target, Label: ps[i].Desc}
	}
	return ps, eps
}

// TestEngineBatchAgreesWithDiff runs generated pairs through the
// concurrent engine batch path and asserts each batch result agrees with
// the single-shot facade Diff on the same pair: the same script edit for
// edit, URIs included (truechange.EqualEdits), well-typed, and convergent
// to the target.
func TestEngineBatchAgreesWithDiff(t *testing.T) {
	cfg := runConfig()
	cfg.MaxNodes = 120
	const n = 48
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			sch := gen.Schema()
			ps, eps := collectPairs(gen, cfg, n)

			eng, err := structdiff.NewEngine(sch, structdiff.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			results, err := eng.DiffBatch(context.Background(), eps)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("pair %d (%q): batch diff failed: %v", i, ps[i].Desc, r.Err)
				}
				if err := structdiff.WellTyped(sch, r.Result.Script); err != nil {
					t.Fatalf("pair %d: batch script ill-typed: %v", i, err)
				}
				if r.Result.Patched.ExactHash() != ps[i].Target.ExactHash() {
					t.Fatalf("pair %d: batch patched tree differs from target", i)
				}
				single, err := structdiff.Diff(ps[i].Source, ps[i].Target, structdiff.WithSchema(sch))
				if err != nil {
					t.Fatalf("pair %d: single diff failed: %v", i, err)
				}
				if !truechange.EqualEdits(r.Result.Script.Edits, single.Script.Edits) {
					t.Fatalf("pair %d (%q): batch script differs from single diff\nbatch:  %v\nsingle: %v",
						i, ps[i].Desc, r.Result.Script.Edits, single.Script.Edits)
				}
				// Stats.Edits is the paper's compound conciseness metric,
				// not the raw edit count.
				if got, want := r.Stats.Edits, r.Result.Script.EditCount(); got != want {
					t.Fatalf("pair %d: Stats.Edits = %d, script EditCount() = %d", i, got, want)
				}
			}
		})
	}
}

// TestEngineBatchFaultFallback arms a deterministic probabilistic Panic
// fault at the engine's diff site under FallbackRootReplace (panics are in
// the rescue set; plain errors deliberately are not): every pair must
// still come back with a well-typed convergent script, faulted pairs
// served by the degraded root-replacement path and marked as such in
// their stats.
func TestEngineBatchFaultFallback(t *testing.T) {
	cfg := runConfig()
	cfg.MaxNodes = 80
	const n = 32
	gen := Generators()[0]
	sch := gen.Schema()
	ps, eps := collectPairs(gen, cfg, n)

	inj := structdiff.NewFaultInjector(cfg.Seed, structdiff.Fault{
		Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultPanic, Prob: 0.5,
	})
	eng, err := structdiff.NewEngine(sch,
		structdiff.WithWorkers(4),
		structdiff.WithFaultInjection(inj),
		structdiff.WithFallback(structdiff.FallbackRootReplace),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.DiffBatch(context.Background(), eps)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pair %d: failed despite FallbackRootReplace: %v", i, r.Err)
		}
		if err := structdiff.WellTyped(sch, r.Result.Script); err != nil {
			t.Fatalf("pair %d: script ill-typed (fallback=%v): %v", i, r.Stats.Fallback, err)
		}
		if r.Result.Patched.ExactHash() != ps[i].Target.ExactHash() {
			t.Fatalf("pair %d: patched tree differs from target (fallback=%v)", i, r.Stats.Fallback)
		}
		if r.Stats.Fallback {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatalf("Prob 0.5 fault over %d pairs never fired", n)
	}
	if fallbacks == n {
		t.Fatalf("Prob 0.5 fault fired on all %d pairs", n)
	}
	t.Logf("%d/%d pairs served by root-replace fallback, all well-typed and convergent", fallbacks, n)
}

// TestEngineBatchFaultNoFallback repeats the fault run under FallbackNone
// and asserts the harness would catch the failure: faulted pairs carry an
// error matching ErrInjected, un-faulted pairs still satisfy the oracle.
func TestEngineBatchFaultNoFallback(t *testing.T) {
	cfg := runConfig()
	cfg.MaxNodes = 80
	const n = 32
	gen := Generators()[0]
	sch := gen.Schema()
	ps, eps := collectPairs(gen, cfg, n)

	inj := structdiff.NewFaultInjector(cfg.Seed, structdiff.Fault{
		Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultError, Prob: 0.5,
	})
	eng, err := structdiff.NewEngine(sch,
		structdiff.WithWorkers(4),
		structdiff.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.DiffBatch(context.Background(), eps)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, faultinject.ErrInjected) {
				t.Fatalf("pair %d: unexpected failure (not the injected fault): %v", i, r.Err)
			}
			failed++
			continue
		}
		if err := structdiff.WellTyped(sch, r.Result.Script); err != nil {
			t.Fatalf("pair %d: script ill-typed: %v", i, err)
		}
		if r.Result.Patched.ExactHash() != ps[i].Target.ExactHash() {
			t.Fatalf("pair %d: patched tree differs from target", i)
		}
	}
	if failed == 0 || failed == n {
		t.Fatalf("Prob 0.5 fault failed %d/%d pairs; want a proper mix", failed, n)
	}
	t.Logf("%d/%d pairs failed with the injected fault, the rest converged", failed, n)
}
