package proptest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/jsonlang"
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Generator produces typed (source, target) tree pairs over one schema.
// Implementations must be deterministic: the pair sequence is a pure
// function of the rng states passed to Pair.
type Generator interface {
	// Name identifies the generator in failures and logs.
	Name() string
	// Schema returns the schema every generated tree is typed against.
	Schema() *sig.Schema
	// Alloc returns the allocator generated trees draw URIs from. It
	// dominates every URI the generator has handed out.
	Alloc() *uri.Allocator
	// Pair generates a source tree of roughly size nodes and a target
	// derived from it by the given number of semantic mutations.
	Pair(rng *rand.Rand, size, mutations int) Pair
}

// Generators returns the harness's standard generator set: Python modules,
// JSON documents, and the pathological shape generator.
func Generators() []Generator {
	return []Generator{NewPyGen(), NewJSONGen(), NewPathoGen()}
}

// --- Python modules ------------------------------------------------------

// PyGen generates random Python modules through the corpus generator and
// mutates them with the corpus's semantic edit operators (rename, literal
// change, statement insert/delete, definition move, statement swap,
// conditional wrap, parameter addition, expression replacement) — the same
// edit kinds the paper's keras corpus exhibits.
type PyGen struct {
	f *pylang.Factory
}

// NewPyGen returns a Python module generator with a fresh factory.
func NewPyGen() *PyGen { return &PyGen{f: pylang.NewFactory()} }

func (g *PyGen) Name() string          { return "pylang" }
func (g *PyGen) Schema() *sig.Schema   { return g.f.Schema() }
func (g *PyGen) Alloc() *uri.Allocator { return g.f.Alloc() }

func (g *PyGen) Pair(rng *rand.Rand, size, mutations int) Pair {
	tg := corpus.NewTreeGen(rng, g.f)
	src := tg.Module(size)
	dst := src
	var desc string
	for i := 0; i < mutations; i++ {
		var kind corpus.EditKind
		dst, kind = tg.Mutate(dst)
		if desc != "" {
			desc += "+"
		}
		desc += kind.String()
	}
	return Pair{Source: src, Target: dst, Desc: desc}
}

// --- JSON documents ------------------------------------------------------

// JSONGen generates random JSON document trees (objects, arrays, scalars)
// over the jsonlang schema and mutates them with the JSON semantic
// operators of mutatejson.go.
type JSONGen struct {
	sch   *sig.Schema
	alloc *uri.Allocator
}

// NewJSONGen returns a JSON document generator over the shared JSON schema
// and a fresh allocator.
func NewJSONGen() *JSONGen {
	return &JSONGen{sch: jsonlang.Schema(), alloc: uri.NewAllocator()}
}

func (g *JSONGen) Name() string          { return "jsonlang" }
func (g *JSONGen) Schema() *sig.Schema   { return g.sch }
func (g *JSONGen) Alloc() *uri.Allocator { return g.alloc }

func (g *JSONGen) Pair(rng *rand.Rand, size, mutations int) Pair {
	src := g.value(rng, size)
	dst := src
	var desc string
	for i := 0; i < mutations; i++ {
		var kind string
		dst, kind = mutateJSON(rng, g.sch, g.alloc, dst)
		if desc != "" {
			desc += "+"
		}
		desc += kind
	}
	return Pair{Source: src, Target: dst, Desc: desc}
}

var jsonKeys = []string{"id", "name", "value", "items", "meta", "kind",
	"size", "tags", "refs", "data", "flags", "ts"}

var jsonStrings = []string{"alpha", "beta", "gamma", "delta", "prod",
	"staging", "on", "off", "v1", "v2"}

// jsonNumber draws a float literal, occasionally a special value: NaN
// surfaced a real bug (literal comparisons used Go ==, which disagrees
// with the bit-pattern literal hash on NaN and ±0, so diff-emitted
// unload/update edits could not comply with their own source — see
// tree.LitEqual), and the generator keeps the whole special class in
// every run's input mix so it can never regress silently.
func jsonNumber(rng *rand.Rand) float64 {
	if rng.Intn(16) == 0 {
		switch rng.Intn(4) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		default:
			return math.Copysign(0, -1)
		}
	}
	return float64(rng.Intn(2000)) / 4
}

// value generates one JSON value of roughly budget nodes.
func (g *JSONGen) value(rng *rand.Rand, budget int) *tree.Node {
	if budget <= 2 {
		return g.scalar(rng)
	}
	if rng.Intn(2) == 0 {
		return g.object(rng, budget)
	}
	return g.array(rng, budget)
}

func (g *JSONGen) scalar(rng *rand.Rand) *tree.Node {
	switch rng.Intn(4) {
	case 0:
		return g.must(jsonlang.TagString, nil, []any{jsonStrings[rng.Intn(len(jsonStrings))]})
	case 1:
		return g.must(jsonlang.TagNumber, nil, []any{jsonNumber(rng)})
	case 2:
		return g.must(jsonlang.TagBool, nil, []any{rng.Intn(2) == 0})
	default:
		return g.must(jsonlang.TagNull, nil, nil)
	}
}

func (g *JSONGen) object(rng *rand.Rand, budget int) *tree.Node {
	n := 1 + rng.Intn(4)
	members := make([]*tree.Node, n)
	for i := range members {
		val := g.value(rng, (budget-2*n)/n)
		key := fmt.Sprintf("%s%d", jsonKeys[rng.Intn(len(jsonKeys))], i)
		members[i] = g.must(jsonlang.TagMember, []*tree.Node{val}, []any{key})
	}
	spine := g.spine(jsonlang.TagMemCons, jsonlang.TagMemNil, members)
	return g.must(jsonlang.TagObject, []*tree.Node{spine}, nil)
}

func (g *JSONGen) array(rng *rand.Rand, budget int) *tree.Node {
	n := 1 + rng.Intn(5)
	elems := make([]*tree.Node, n)
	for i := range elems {
		elems[i] = g.value(rng, (budget-n)/n)
	}
	spine := g.spine(jsonlang.TagElCons, jsonlang.TagElNil, elems)
	return g.must(jsonlang.TagArray, []*tree.Node{spine}, nil)
}

func (g *JSONGen) spine(cons, nilTag sig.Tag, elems []*tree.Node) *tree.Node {
	out := g.must(nilTag, nil, nil)
	for i := len(elems) - 1; i >= 0; i-- {
		out = g.must(cons, []*tree.Node{elems[i], out}, nil)
	}
	return out
}

func (g *JSONGen) must(tag sig.Tag, kids []*tree.Node, lits []any) *tree.Node {
	return mustNode(g.sch, g.alloc, tag, kids, lits)
}

func mustNode(sch *sig.Schema, alloc *uri.Allocator, tag sig.Tag, kids []*tree.Node, lits []any) *tree.Node {
	n, err := tree.New(sch, alloc, tag, kids, lits)
	if err != nil {
		panic(fmt.Sprintf("proptest: generator built an invalid node: %v", err))
	}
	return n
}

// --- Pathological shapes -------------------------------------------------

// PathoGen generates adversarial tree shapes over the jsonlang schema:
// deep chains (nested single-element arrays), wide fan-outs (one container
// with hundreds of children), duplicate-subtree-heavy trees (one random
// subtree repeated many times, stressing the share-assignment heuristics),
// and hash-collision-adjacent shapes (structurally equivalent subtrees
// differing only in literals, which collide under the structural hash and
// force the literal-preference tie-break). RTED-style evaluations show
// robustness claims need exactly these shapes, not just volume.
type PathoGen struct {
	json *JSONGen
}

// NewPathoGen returns a pathological shape generator.
func NewPathoGen() *PathoGen { return &PathoGen{json: NewJSONGen()} }

func (g *PathoGen) Name() string          { return "patho" }
func (g *PathoGen) Schema() *sig.Schema   { return g.json.sch }
func (g *PathoGen) Alloc() *uri.Allocator { return g.json.alloc }

func (g *PathoGen) Pair(rng *rand.Rand, size, mutations int) Pair {
	var src *tree.Node
	var shape string
	switch rng.Intn(4) {
	case 0:
		src, shape = g.deepChain(rng, size), "deep-chain"
	case 1:
		src, shape = g.wideFanout(rng, size), "wide-fanout"
	case 2:
		src, shape = g.duplicateHeavy(rng, size), "dup-heavy"
	default:
		src, shape = g.collisionAdjacent(rng, size), "collision"
	}
	dst := src
	var desc string
	for i := 0; i < mutations; i++ {
		var kind string
		dst, kind = mutateJSON(rng, g.json.sch, g.json.alloc, dst)
		if desc != "" {
			desc += "+"
		}
		desc += kind
	}
	return Pair{Source: src, Target: dst, Desc: shape + ":" + desc}
}

// deepChain nests single-element arrays size deep: worst case for
// recursive traversals and context polling.
func (g *PathoGen) deepChain(rng *rand.Rand, size int) *tree.Node {
	j := g.json
	cur := j.scalar(rng)
	for i := 0; i < size/3; i++ {
		spine := j.spine(jsonlang.TagElCons, jsonlang.TagElNil, []*tree.Node{cur})
		cur = j.must(jsonlang.TagArray, []*tree.Node{spine}, nil)
	}
	return cur
}

// wideFanout puts all the budget into one flat container.
func (g *PathoGen) wideFanout(rng *rand.Rand, size int) *tree.Node {
	j := g.json
	n := size
	if n < 4 {
		n = 4
	}
	elems := make([]*tree.Node, n)
	for i := range elems {
		elems[i] = j.scalar(rng)
	}
	spine := j.spine(jsonlang.TagElCons, jsonlang.TagElNil, elems)
	return j.must(jsonlang.TagArray, []*tree.Node{spine}, nil)
}

// duplicateHeavy repeats one random subtree many times: every repetition
// is an exact-equivalence candidate for every other, the worst case for
// the candidate registry and selection heap.
func (g *PathoGen) duplicateHeavy(rng *rand.Rand, size int) *tree.Node {
	j := g.json
	unit := j.value(rng, 8)
	n := size / max(unit.Size(), 1)
	if n < 3 {
		n = 3
	}
	elems := make([]*tree.Node, n)
	for i := range elems {
		elems[i] = tree.Clone(unit, j.alloc, tree.SHA256)
	}
	spine := j.spine(jsonlang.TagElCons, jsonlang.TagElNil, elems)
	return j.must(jsonlang.TagArray, []*tree.Node{spine}, nil)
}

// collisionAdjacent builds many subtrees that are structurally equivalent
// (identical shape and tags) but literally distinct, so they all collide
// under the structural hash and only the literal hash separates them.
func (g *PathoGen) collisionAdjacent(rng *rand.Rand, size int) *tree.Node {
	j := g.json
	n := size / 4
	if n < 3 {
		n = 3
	}
	elems := make([]*tree.Node, n)
	for i := range elems {
		num := j.must(jsonlang.TagNumber, nil, []any{jsonNumber(rng)})
		elems[i] = j.must(jsonlang.TagMember, []*tree.Node{num}, []any{jsonStrings[rng.Intn(len(jsonStrings))]})
	}
	spine := j.spine(jsonlang.TagMemCons, jsonlang.TagMemNil, elems)
	return j.must(jsonlang.TagObject, []*tree.Node{spine}, nil)
}
