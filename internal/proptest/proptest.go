// Package proptest is the property-based correctness harness of the
// reproduction: a deterministic, seed-reproducible generator-and-oracle
// subsystem that checks the paper's two central claims — well-typedness of
// emitted scripts (Conjecture 4.2) and patch convergence
// patch(diff(a,b), a) ≃ b (Conjecture 4.3) — plus four further properties
// (empty self-diff, transactional rollback round-trips under injected
// faults, negative-before-positive edit ordering, and exact
// Patch/Invert round trips) on thousands of generated tree pairs instead
// of the paper's ~200 hand-picked cases. merge.go lifts the same harness
// to three-tree merge triples (see CheckTriple).
//
// The harness has five parts:
//
//   - typed tree generators per signature (Generator): random Python
//     modules (reusing the corpus generator and its semantic mutation
//     operators), random JSON documents, and a pathological generator
//     producing deep chains, wide fan-outs, duplicate-subtree-heavy trees,
//     and hash-collision-adjacent shapes (structurally equivalent subtrees
//     differing only in literals);
//   - semantic mutation operators mirroring the corpus edit kinds (rename,
//     literal change, insert, delete, move, swap);
//   - an oracle (CheckPair) that runs every generated (a, b) pair through
//     the public structdiff facade and checks all five properties;
//   - a greedy shrinker (Shrinker) that minimizes any failing pair to a
//     small reproducer, serialized into a committed regression corpus
//     (testdata/regress, see Reproducer);
//   - a differential mode (Differential) cross-checking truediff's scripts
//     against the lineardiff and gumtree baselines.
//
// Everything is driven by a single int64 seed that the tests log on every
// run: rerunning with -proptest.seed=<seed> reproduces the exact pair
// sequence, and the per-run Checksum makes drift detectable.
package proptest

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/tree"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed drives every random choice of the run. The same Seed always
	// yields the same pair sequence, mutation kinds, and fault positions.
	Seed int64
	// Iters is the number of generated pairs per generator.
	Iters int
	// MinNodes/MaxNodes bound generated tree sizes (before mutation).
	MinNodes, MaxNodes int
	// MutationsPerPair bounds how many semantic mutations separate a pair's
	// source from its target (at least 1 is applied).
	MutationsPerPair int
}

// DefaultConfig is the fast-mode configuration wired into go test: bounded
// iterations sized to keep the suite in seconds.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Iters:            500,
		MinNodes:         20,
		MaxNodes:         160,
		MutationsPerPair: 3,
	}
}

// LongConfig is the nightly configuration (-proptest.long): an order of
// magnitude more pairs over larger trees.
func LongConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Iters:            5000,
		MinNodes:         40,
		MaxNodes:         600,
		MutationsPerPair: 5,
	}
}

// Pair is one generated diffing task: a source tree, a target derived from
// it by semantic mutations, and a human-readable description of how.
type Pair struct {
	Source, Target *tree.Node
	// Desc names the mutation kinds applied, e.g. "rename+literal".
	Desc string
	// Iter is the pair's position in the run's sequence.
	Iter int
}

// Failure reports a property violation on one pair, carrying everything
// needed to reproduce and file it: the generator and property names, the
// run seed, the iteration, and the (possibly shrunk) pair.
type Failure struct {
	Generator string
	Property  string
	Seed      int64
	Iter      int
	Pair      Pair
	Err       error
}

func (f *Failure) Error() string {
	return fmt.Sprintf("proptest: %s/%s failed at iter %d (seed %d, pair %q): %v",
		f.Generator, f.Property, f.Iter, f.Seed, f.Pair.Desc, f.Err)
}

func (f *Failure) Unwrap() error { return f.Err }

// Run drives one generator for cfg.Iters pairs, invoking check on each and
// returning the first Failure (or nil). It also accumulates a determinism
// checksum over the generated pairs; two runs with the same seed and
// config must produce the same checksum, which TestDeterministicReplay
// asserts.
type Run struct {
	Gen Generator
	Cfg Config

	rng      *rand.Rand
	checksum uint64
	pairs    int
}

// NewRun returns a run of the generator under the config. The generator is
// reseeded from cfg.Seed, so constructing a new Run restarts the sequence.
func NewRun(gen Generator, cfg Config) *Run {
	return &Run{Gen: gen, Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), checksum: 14695981039346656037}
}

// Next generates the next pair of the sequence and folds its digests into
// the run checksum.
func (r *Run) Next() Pair {
	size := r.Cfg.MinNodes
	if r.Cfg.MaxNodes > r.Cfg.MinNodes {
		size += r.rng.Intn(r.Cfg.MaxNodes - r.Cfg.MinNodes)
	}
	muts := 1 + r.rng.Intn(r.Cfg.MutationsPerPair)
	p := r.Gen.Pair(r.rng, size, muts)
	p.Iter = r.pairs
	r.pairs++
	r.fold(string(p.Source.AppendExactHash(nil)))
	r.fold(string(p.Target.AppendExactHash(nil)))
	return p
}

// fold mixes a string into the FNV-1a run checksum.
func (r *Run) fold(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	r.checksum = (r.checksum ^ h.Sum64()) * 1099511628211
}

// FoldScript mixes a per-pair observation (e.g. the script length) into
// the checksum, so replay equality covers the oracle's view, not just the
// generated trees.
func (r *Run) FoldScript(editCount int) { r.fold(fmt.Sprintf("edits:%d", editCount)) }

// Checksum returns the determinism checksum accumulated so far.
func (r *Run) Checksum() uint64 { return r.checksum }

// Pairs returns how many pairs the run has generated.
func (r *Run) Pairs() int { return r.pairs }
