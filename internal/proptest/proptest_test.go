package proptest

import (
	"errors"
	"flag"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// The harness flags. The seed is logged on every run, so any failure line
// carries everything needed for exact replay:
//
//	go test ./internal/proptest -run TestProperties -proptest.seed=<seed>
//
// -proptest.long switches to the nightly configuration (10× the pairs over
// larger trees); -proptest.save writes shrunk reproducers of any failure
// into testdata/regress for committing.
var (
	flagSeed = flag.Int64("proptest.seed", 1, "seed for the property-based harness (logged; reuse for exact replay)")
	flagLong = flag.Bool("proptest.long", false, "run the nightly long configuration (more pairs, larger trees)")
	flagSave = flag.String("proptest.save", "", "directory to save shrunk reproducers of failures into (e.g. testdata/regress)")
)

func runConfig() Config {
	if *flagLong {
		return LongConfig(*flagSeed)
	}
	return DefaultConfig(*flagSeed)
}

// reportFailure shrinks a failing pair, logs a minimal reproducer, and
// fails the test. The shrink preserves the violated property: a candidate
// pair only counts as "still failing" if the same property fails on it.
func reportFailure(t *testing.T, gen Generator, cfg Config, p Pair, salt int64, err error) {
	t.Helper()
	var pe *PropertyError
	prop := "unknown"
	if errors.As(err, &pe) {
		prop = pe.Property
	}
	f := &Failure{Generator: gen.Name(), Property: prop, Seed: cfg.Seed, Iter: p.Iter, Pair: p, Err: err}

	sh := NewShrinker(gen.Schema(), gen.Alloc())
	check := func(src, dst *tree.Node) error {
		_, cerr := CheckPair(gen.Schema(), Pair{Source: src, Target: dst, Desc: p.Desc}, salt)
		var cpe *PropertyError
		if errors.As(cerr, &cpe) && cpe.Property == prop {
			return cerr
		}
		return nil // passes, or fails a different property: not this failure
	}
	src, dst, serr, evals := sh.ShrinkPair(p.Source, p.Target, check)
	if serr != nil {
		f.Pair = Pair{Source: src, Target: dst, Desc: p.Desc, Iter: p.Iter}
		f.Err = serr
	}
	r := NewReproducer(f)
	t.Logf("shrunk to %d+%d nodes in %d evals\nsource: %s\ntarget: %s",
		src.Size(), dst.Size(), evals, r.Source, r.Target)
	if *flagSave != "" {
		if path, werr := r.Save(*flagSave); werr != nil {
			t.Logf("saving reproducer failed: %v", werr)
		} else {
			t.Logf("reproducer saved to %s", path)
		}
	}
	t.Fatalf("%v\nreplay: go test ./internal/proptest -run 'TestProperties/%s' -proptest.seed=%d",
		f, gen.Name(), cfg.Seed)
}

// TestProperties is the harness's main entry point: for every generator it
// runs cfg.Iters generated pairs (500 in fast mode, 5000 with
// -proptest.long) through the seven-property oracle via the public
// structdiff facade. The run seed is logged so any failure replays
// exactly.
func TestProperties(t *testing.T) {
	cfg := runConfig()
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			run := NewRun(gen, cfg)
			t.Logf("seed=%d iters=%d nodes=[%d,%d) mutations≤%d",
				cfg.Seed, cfg.Iters, cfg.MinNodes, cfg.MaxNodes, cfg.MutationsPerPair)
			for i := 0; i < cfg.Iters; i++ {
				p := run.Next()
				salt := cfg.Seed + int64(i)
				script, err := CheckPair(gen.Schema(), p, salt)
				if err != nil {
					reportFailure(t, gen, cfg, p, salt, err)
				}
				run.FoldScript(len(script.Edits))
			}
			if run.Pairs() != cfg.Iters {
				t.Fatalf("run generated %d pairs, want %d", run.Pairs(), cfg.Iters)
			}
			t.Logf("checksum=%#016x over %d pairs", run.Checksum(), run.Pairs())
		})
	}
}

// TestPropertiesTinyTrees reruns the oracle with the size window forced
// down to 1–10 nodes: degenerate inputs (single-node trees, empty
// containers, root-only documents) live below the main run's MinNodes
// floor, and boundary bugs live with them.
func TestPropertiesTinyTrees(t *testing.T) {
	cfg := runConfig()
	cfg.MinNodes, cfg.MaxNodes = 1, 10
	cfg.Iters /= 2
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			run := NewRun(gen, cfg)
			for i := 0; i < cfg.Iters; i++ {
				p := run.Next()
				salt := cfg.Seed + int64(i)
				if _, err := CheckPair(gen.Schema(), p, salt); err != nil {
					reportFailure(t, gen, cfg, p, salt, err)
				}
			}
			t.Logf("checksum=%#016x over %d tiny pairs (seed=%d)", run.Checksum(), run.Pairs(), cfg.Seed)
		})
	}
}

// TestDeterministicReplay asserts exact replay: two runs with the same
// seed produce bit-identical pair sequences and scripts (compared via the
// run checksum, which folds in every tree digest and script length), and a
// different seed produces a different sequence.
func TestDeterministicReplay(t *testing.T) {
	const iters = 40
	cfg := DefaultConfig(*flagSeed)
	cfg.Iters = iters
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			sum := func(c Config) uint64 {
				run := NewRun(gen, c)
				for i := 0; i < c.Iters; i++ {
					p := run.Next()
					script, err := CheckPair(gen.Schema(), p, c.Seed+int64(i))
					if err != nil {
						t.Fatalf("iter %d: %v", i, err)
					}
					run.FoldScript(len(script.Edits))
				}
				return run.Checksum()
			}
			a, b := sum(cfg), sum(cfg)
			if a != b {
				t.Fatalf("same seed, different checksums: %#x vs %#x", a, b)
			}
			other := cfg
			other.Seed += 1000003
			if c := sum(other); c == a {
				t.Fatalf("different seeds produced the same checksum %#x", a)
			}
			t.Logf("checksum=%#016x replays exactly (seed=%d, %d pairs)", a, cfg.Seed, iters)
		})
	}
}

// TestDifferential cross-checks truediff against the lineardiff and
// gumtree baselines on generated pairs: truediff's scripts must be
// well-typed (the baselines carry no such obligation), lineardiff's must
// apply back to the target, and gumtree's matching must bridge into a
// well-typed convergent script. Aggregate size ratios are reported, never
// asserted — per-pair winners are legitimately noisy.
func TestDifferential(t *testing.T) {
	cfg := runConfig()
	iters := cfg.Iters / 5
	if iters < 20 {
		iters = 20
	}
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			run := NewRun(gen, cfg)
			var nodes, td, ld, gt int
			for i := 0; i < iters; i++ {
				p := run.Next()
				sizes, err := Differential(gen.Schema(), p)
				if err != nil {
					t.Fatalf("iter %d (seed %d, pair %q): %v", i, cfg.Seed, p.Desc, err)
				}
				nodes += sizes.Nodes
				td += sizes.TruediffEdits
				ld += sizes.LineardiffChanges
				gt += sizes.GumtreeActions
			}
			t.Logf("%d pairs, %d source nodes: truediff %d edits, lineardiff %d changes, gumtree %d actions (ratios per truediff edit: linear %.2f, gumtree %.2f)",
				iters, nodes, td, ld, gt,
				float64(ld)/float64(max(td, 1)), float64(gt)/float64(max(td, 1)))
		})
	}
}

// TestRegressionCorpus replays every committed reproducer in
// testdata/regress through the full oracle. Each entry is a shrunk pair
// that once violated a property; all must pass now and forever.
func TestRegressionCorpus(t *testing.T) {
	rs, err := LoadReproducers("testdata/regress")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Log("no committed reproducers")
	}
	for _, r := range rs {
		r := r
		t.Run(r.Lang+"/"+r.Property, func(t *testing.T) {
			sch, src, dst, err := r.Trees()
			if err != nil {
				t.Fatal(err)
			}
			p := Pair{Source: src, Target: dst, Desc: "regress"}
			if _, err := CheckPair(sch, p, r.Seed); err != nil {
				t.Fatalf("committed reproducer fails again (note: %s): %v", r.Note, err)
			}
		})
	}
}

// TestShrinkerMinimalTrees sanity-checks the schema-generic minimal-tree
// fixpoint on both schemas: every generated pair's root must be shrinkable
// at least in principle (a minimal tree exists for the root's result
// sort).
func TestShrinkerMinimalTrees(t *testing.T) {
	for _, gen := range Generators() {
		sh := NewShrinker(gen.Schema(), gen.Alloc())
		p := gen.Pair(newTestRNG(*flagSeed), 30, 1)
		res, ok := gen.Schema().ResultSort(p.Source.Tag)
		if !ok {
			t.Fatalf("%s: root tag %q has no result sort", gen.Name(), p.Source.Tag)
		}
		min := sh.minimalTree(res)
		if min == nil {
			t.Fatalf("%s: no minimal tree for root sort %q", gen.Name(), res)
		}
		if min.Size() > p.Source.Size() {
			t.Fatalf("%s: minimal tree of sort %q has %d nodes, generated root only %d",
				gen.Name(), res, min.Size(), p.Source.Size())
		}
	}
}

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
