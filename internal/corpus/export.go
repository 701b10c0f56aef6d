package corpus

import (
	"math/rand"

	"repro/internal/pylang"
	"repro/internal/tree"
)

// TreeGen exposes the corpus's Python module generator and its semantic
// mutation operators for reuse outside history generation — the
// property-based testing harness (internal/proptest) drives it with its
// own deterministic RNG to produce typed (before, after) pairs whose
// edits mirror the corpus edit kinds.
type TreeGen struct {
	g gen
}

// NewTreeGen returns a generator of random Python modules and semantic
// mutations over the factory's schema, driven entirely by rng: the same
// rng state always yields the same trees.
func NewTreeGen(rng *rand.Rand, f *pylang.Factory) *TreeGen {
	return &TreeGen{g: gen{rng: rng, f: f}}
}

// Module generates one random module of roughly targetNodes AST nodes.
func (t *TreeGen) Module(targetNodes int) *tree.Node { return t.g.module(targetNodes) }

// Mutate applies one random semantic edit of a random kind to the module,
// returning the mutated module and the kind applied. Like a reparse, the
// result shares every subtree the edit left alone with mod; the nodes it
// rebuilds get fresh URIs. It always succeeds.
func (t *TreeGen) Mutate(mod *tree.Node) (*tree.Node, EditKind) { return t.g.mutate(mod) }
