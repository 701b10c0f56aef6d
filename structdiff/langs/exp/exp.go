// Package exp exposes the arithmetic expression language used throughout
// the paper's examples (§2): numbers, variables, arithmetic, calls, and
// let-bindings, plus a deterministic random generator and mutator for
// benchmarks. It is the public face of internal/exp.
package exp

import (
	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
)

// Constructor tags of the expression language.
const (
	Num  = exp.Num
	Var  = exp.Var
	Add  = exp.Add
	Sub  = exp.Sub
	Mul  = exp.Mul
	Call = exp.Call
	Let  = exp.Let
)

// Exp is the language's only sort.
const Exp = exp.Exp

// Schema returns the schema declaring the expression language. Every call
// returns the same shared instance, which must not be declared into.
func Schema() *sig.Schema { return exp.Schema() }

// NewBuilder returns a tree builder over the shared schema and a fresh
// allocator.
func NewBuilder() *tree.Builder { return exp.NewBuilder() }

// Gen deterministically generates and mutates random expression trees.
type Gen = exp.Gen

// NewGen returns a generator seeded for reproducibility.
func NewGen(seed int64) *Gen { return exp.NewGen(seed) }
