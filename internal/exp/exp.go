// Package exp defines the small expression language used throughout the
// paper's examples (Sections 1–4): numbers, variables, binary operators,
// and calls. It serves as the shared schema for unit tests, property-based
// tests, and the quickstart example, and provides seeded random generators
// for expression trees and realistic mutations of them.
package exp

import (
	"sync"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Sorts of the expression language.
const (
	Exp sig.Sort = "Exp"
)

// Tags of the expression language.
const (
	Num  sig.Tag = "Num"
	Var  sig.Tag = "Var"
	Add  sig.Tag = "Add"
	Sub  sig.Tag = "Sub"
	Mul  sig.Tag = "Mul"
	Call sig.Tag = "Call"
	Let  sig.Tag = "Let"
)

// Schema returns the expression language schema:
//
//	Num(n: int)                     → Exp
//	Var(name: string)               → Exp
//	Add(e1: Exp, e2: Exp)           → Exp
//	Sub(e1: Exp, e2: Exp)           → Exp
//	Mul(e1: Exp, e2: Exp)           → Exp
//	Call(f: string, a: Exp)         → Exp
//	Let(bound: Exp, body: Exp, x: string) → Exp
//
// Every call returns the same instance, built on first use; it is shared,
// so it must not be declared into.
func Schema() *sig.Schema { return schema() }

var schema = sync.OnceValue(func() *sig.Schema {
	s := sig.NewSchema("exp")
	s.MustDeclare(sig.Sig{Tag: Num, Lits: []sig.LitSpec{{Link: "n", Type: sig.IntLit}}, Result: Exp})
	s.MustDeclare(sig.Sig{Tag: Var, Lits: []sig.LitSpec{{Link: "name", Type: sig.StringLit}}, Result: Exp})
	for _, t := range []sig.Tag{Add, Sub, Mul} {
		s.MustDeclare(sig.Sig{
			Tag:    t,
			Kids:   []sig.KidSpec{{Link: "e1", Sort: Exp}, {Link: "e2", Sort: Exp}},
			Result: Exp,
		})
	}
	s.MustDeclare(sig.Sig{
		Tag:    Call,
		Kids:   []sig.KidSpec{{Link: "a", Sort: Exp}},
		Lits:   []sig.LitSpec{{Link: "f", Type: sig.StringLit}},
		Result: Exp,
	})
	s.MustDeclare(sig.Sig{
		Tag:    Let,
		Kids:   []sig.KidSpec{{Link: "bound", Sort: Exp}, {Link: "body", Sort: Exp}},
		Lits:   []sig.LitSpec{{Link: "x", Type: sig.StringLit}},
		Result: Exp,
	})
	return s
})

// NewBuilder returns a tree builder over the shared expression schema and
// a fresh URI allocator.
func NewBuilder() *tree.Builder {
	return tree.NewBuilder(Schema(), uri.NewAllocator())
}
