package proptest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tree"
	"repro/internal/truechange"

	"repro/structdiff"
)

// buggyCheck runs one pair through a deliberately broken engine — an Error
// fault armed at the engine's diff site fires on every diff — and reports
// what the oracle would: the pair fails because diffing it fails. This is
// the harness testing itself: a real engine bug of the "diff errors out"
// class must be caught exactly like this and shrunk the same way.
func buggyCheck(gen Generator, src, dst *tree.Node) error {
	inj := faultinject.New(1, faultinject.Fault{
		Site: structdiff.FaultSiteDiff, Kind: faultinject.Error,
	})
	eng, err := structdiff.NewEngine(gen.Schema(), structdiff.WithFaultInjection(inj))
	if err != nil {
		return err
	}
	if pr := eng.DiffPair(context.Background(), structdiff.Pair{Source: src, Target: dst}); pr.Err != nil {
		return propErr(PropWellTyped, "engine diff failed: %w", pr.Err)
	}
	return nil
}

// TestSelfTestInjectedEngineBug is the harness's end-to-end self-test
// demanded by the acceptance criteria: a deliberately injected engine bug
// (via faultinject at the engine/diff site) must be (1) caught by the
// oracle on a generated pair, (2) shrunk by the shrinker to a reproducer
// of at most 10 nodes per side, (3) serialized into a reproducer that
// round-trips through Save/Load, and (4) shown to pass the real,
// un-sabotaged oracle — proving the failure was the engine's, not the
// pair's.
func TestSelfTestInjectedEngineBug(t *testing.T) {
	gen := Generators()[0]
	cfg := DefaultConfig(*flagSeed)
	run := NewRun(gen, cfg)
	p := run.Next()

	// 1 — caught: the buggy engine fails the generated pair.
	err := buggyCheck(gen, p.Source, p.Target)
	if err == nil {
		t.Fatal("injected engine bug was not caught on a generated pair")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("caught failure does not trace back to the injected fault: %v", err)
	}

	// 2 — shrunk: minimize while the bug keeps reproducing.
	sh := NewShrinker(gen.Schema(), gen.Alloc())
	src, dst, serr, evals := sh.ShrinkPair(p.Source, p.Target, func(s, d *tree.Node) error {
		return buggyCheck(gen, s, d)
	})
	if serr == nil {
		t.Fatal("shrinker lost the failure")
	}
	t.Logf("shrunk %d+%d → %d+%d nodes in %d evals",
		p.Source.Size(), p.Target.Size(), src.Size(), dst.Size(), evals)
	if src.Size() > 10 || dst.Size() > 10 {
		t.Fatalf("shrunk reproducer has %d+%d nodes, want ≤10 per side", src.Size(), dst.Size())
	}

	// 3 — filed: the reproducer round-trips through Save/Load.
	f := &Failure{
		Generator: gen.Name(), Property: PropWellTyped, Seed: cfg.Seed, Iter: p.Iter,
		Pair: Pair{Source: src, Target: dst, Desc: "selftest"}, Err: serr,
	}
	dir := t.TempDir()
	path, err := NewReproducer(f).Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReproducers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d reproducers from %s, want 1", len(loaded), filepath.Base(path))
	}
	sch, lsrc, ldst, err := loaded[0].Trees()
	if err != nil {
		t.Fatal(err)
	}
	if lsrc.ExactHash() != src.ExactHash() || ldst.ExactHash() != dst.ExactHash() {
		t.Fatal("reproducer trees changed across the Save/Load round trip")
	}

	// 4 — exonerated: the real oracle passes the shrunk pair, so the bug
	// was in the (sabotaged) engine.
	if _, err := CheckPair(sch, Pair{Source: lsrc, Target: ldst}, cfg.Seed); err != nil {
		t.Fatalf("shrunk pair fails the clean oracle too: %v", err)
	}

	// Saving again is idempotent (content-addressed name).
	if _, err := NewReproducer(f).Save(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("re-saving created a second file: %d entries", len(entries))
	}
}

// TestSelfTestSemanticBugShrinks checks the shrinker on a semantic (wrong
// output, rather than erroring) bug: pretend any script containing an
// Update edit is wrong, and verify the shrinker reduces an arbitrary
// failing pair to a near-minimal pair that still provokes an Update. This
// is the class of failure satellite regressions are made of: the shrunk
// pair isolates the single literal change behind the offending edit.
func TestSelfTestSemanticBugShrinks(t *testing.T) {
	gen := Generators()[0]
	sch := gen.Schema()
	cfg := DefaultConfig(*flagSeed)
	run := NewRun(gen, cfg)

	hasUpdate := func(s *truechange.Script) bool {
		for _, e := range s.Edits {
			if _, ok := e.(truechange.Update); ok {
				return true
			}
		}
		return false
	}
	prop := func(src, dst *tree.Node) error {
		res, err := structdiff.Diff(src, dst,
			structdiff.WithSchema(sch), structdiff.WithUpdateOnLitMismatch())
		if err != nil {
			return nil // a pair the differ rejects is not this bug
		}
		if hasUpdate(res.Script) {
			return propErr("semantic-selftest", "script contains an Update edit")
		}
		return nil
	}

	// Find a pair provoking the "bug" (a literal-only mutation exists in
	// every generator's mix, so this terminates quickly).
	var found *Pair
	for i := 0; i < cfg.Iters; i++ {
		p := run.Next()
		if prop(p.Source, p.Target) != nil {
			found = &p
			break
		}
	}
	if found == nil {
		t.Fatalf("no generated pair provoked an Update edit in %d iterations", cfg.Iters)
	}

	sh := NewShrinker(sch, gen.Alloc())
	src, dst, serr, evals := sh.ShrinkPair(found.Source, found.Target, prop)
	if serr == nil {
		t.Fatal("shrinker lost the failure")
	}
	t.Logf("shrunk %d+%d → %d+%d nodes in %d evals",
		found.Source.Size(), found.Target.Size(), src.Size(), dst.Size(), evals)
	if src.Size() > 12 || dst.Size() > 12 {
		t.Fatalf("shrunk reproducer has %d+%d nodes, want ≤12 per side", src.Size(), dst.Size())
	}
	if prop(src, dst) == nil {
		t.Fatal("shrunk pair no longer reproduces the Update edit")
	}
}
