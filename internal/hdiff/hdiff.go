// Package hdiff implements a type-safe structural differ in the style of
// Miraldo and Swierstra's hdiff (ICFP 2019), the typed baseline of the
// paper's evaluation. A patch is a tree rewriting: a pattern matched
// against the source tree, binding metavariables to shared subtrees, and a
// template instantiated with those bindings to produce the target tree
// (paper §1: Add(#1, Mul(#2, #3)) ↦ Add(#3, Mul(#2, #1))).
//
// Metavariables are extracted in hdiff's "patience" mode: a subtree may be
// shared only if it occurs exactly once in the source and exactly once in
// the target (and is not a bare leaf), so the binding is unambiguous. All
// other constructors are spelled out in the pattern and template — which is
// why hdiff patches are proportional to the size of the input trees, the
// property the paper's Figure 4 measures.
package hdiff

import (
	"fmt"
	"strings"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// PTree is a pattern/template tree: either a metavariable (Metavar >= 0)
// or a constructor node with literal values and children.
type PTree struct {
	Metavar int // -1 for constructor nodes
	Tag     sig.Tag
	Lits    []any
	Kids    []*PTree
}

// IsMetavar reports whether the node is a metavariable.
func (p *PTree) IsMetavar() bool { return p.Metavar >= 0 }

// String renders the pattern tree; metavariables print as #k.
func (p *PTree) String() string {
	var b strings.Builder
	p.format(&b)
	return b.String()
}

func (p *PTree) format(b *strings.Builder) {
	if p.IsMetavar() {
		fmt.Fprintf(b, "#%d", p.Metavar)
		return
	}
	b.WriteString(string(p.Tag))
	if len(p.Lits) > 0 {
		b.WriteByte('{')
		for i, l := range p.Lits {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%#v", l)
		}
		b.WriteByte('}')
	}
	if len(p.Kids) > 0 {
		b.WriteByte('(')
		for i, k := range p.Kids {
			if i > 0 {
				b.WriteString(", ")
			}
			k.format(b)
		}
		b.WriteByte(')')
	}
}

// Patch is a tree rewriting Pattern ↦ Template.
type Patch struct {
	Pattern  *PTree
	Template *PTree
	// Metavars is the number of distinct metavariables.
	Metavars int
}

// String renders the patch as pattern ↦ template.
func (p *Patch) String() string {
	return p.Pattern.String() + "  ↦  " + p.Template.String()
}

// Size returns the paper's patch-size metric for hdiff: the number of
// constructors mentioned in the tree rewriting (pattern plus template;
// metavariable occurrences do not count).
func (p *Patch) Size() int {
	return countConstructors(p.Pattern) + countConstructors(p.Template)
}

func countConstructors(p *PTree) int {
	if p.IsMetavar() {
		return 0
	}
	n := 1
	for _, k := range p.Kids {
		n += countConstructors(k)
	}
	return n
}

// Options tune metavariable extraction.
type Options struct {
	// MinHeight is the minimum height of a shared subtree. The default 0
	// allows even leaves to be shared when they occur uniquely; repeated
	// leaves (empty list spines, common identifiers) are never shareable
	// in patience mode and remain spelled out.
	MinHeight int
}

// DefaultOptions mirrors hdiff's patience-mode defaults.
func DefaultOptions() Options { return Options{MinHeight: 0} }

// Diff computes the patch transforming src into dst.
func Diff(src, dst *tree.Node, opts Options) *Patch {
	srcCount := make(map[tree.ExactKey]int)
	dstCount := make(map[tree.ExactKey]int)
	tree.Walk(src, func(n *tree.Node) { srcCount[n.ExactHash()]++ })
	tree.Walk(dst, func(n *tree.Node) { dstCount[n.ExactHash()]++ })

	vars := make(map[tree.ExactKey]int) // hash -> metavar id
	next := 0
	shareable := func(n *tree.Node) (int, bool) {
		if n.Height() < opts.MinHeight {
			return 0, false
		}
		h := n.ExactHash()
		if srcCount[h] != 1 || dstCount[h] != 1 {
			return 0, false
		}
		v, ok := vars[h]
		if !ok {
			v = next
			next++
			vars[h] = v
		}
		return v, true
	}

	var extract func(n *tree.Node) *PTree
	extract = func(n *tree.Node) *PTree {
		if v, ok := shareable(n); ok {
			return &PTree{Metavar: v}
		}
		p := &PTree{Metavar: -1, Tag: n.Tag, Lits: n.Lits}
		p.Kids = make([]*PTree, len(n.Kids))
		for i, k := range n.Kids {
			p.Kids[i] = extract(k)
		}
		return p
	}
	return &Patch{Pattern: extract(src), Template: extract(dst), Metavars: next}
}

// Apply matches the patch's pattern against src, binding metavariables, and
// instantiates the template, producing the target tree with fresh URIs from
// alloc. It fails if the pattern does not match.
func Apply(p *Patch, src *tree.Node, sch *sig.Schema, alloc *uri.Allocator) (*tree.Node, error) {
	binding := make(map[int]*tree.Node)
	if err := match(p.Pattern, src, binding); err != nil {
		return nil, err
	}
	return instantiate(p.Template, binding, sch, alloc)
}

func match(pat *PTree, n *tree.Node, binding map[int]*tree.Node) error {
	if pat.IsMetavar() {
		if old, ok := binding[pat.Metavar]; ok && !tree.Equal(old, n) {
			return fmt.Errorf("hdiff: metavariable #%d bound to conflicting subtrees", pat.Metavar)
		}
		binding[pat.Metavar] = n
		return nil
	}
	if pat.Tag != n.Tag {
		return fmt.Errorf("hdiff: pattern mismatch: %s vs %s", pat.Tag, n.Tag)
	}
	if len(pat.Lits) != len(n.Lits) || len(pat.Kids) != len(n.Kids) {
		return fmt.Errorf("hdiff: arity mismatch at %s", pat.Tag)
	}
	for i := range pat.Lits {
		if !tree.LitEqual(pat.Lits[i], n.Lits[i]) {
			return fmt.Errorf("hdiff: literal mismatch at %s: %#v vs %#v", pat.Tag, pat.Lits[i], n.Lits[i])
		}
	}
	for i := range pat.Kids {
		if err := match(pat.Kids[i], n.Kids[i], binding); err != nil {
			return err
		}
	}
	return nil
}

func instantiate(tmpl *PTree, binding map[int]*tree.Node, sch *sig.Schema, alloc *uri.Allocator) (*tree.Node, error) {
	if tmpl.IsMetavar() {
		n, ok := binding[tmpl.Metavar]
		if !ok {
			return nil, fmt.Errorf("hdiff: unbound metavariable #%d", tmpl.Metavar)
		}
		return n, nil
	}
	kids := make([]*tree.Node, len(tmpl.Kids))
	for i, k := range tmpl.Kids {
		kid, err := instantiate(k, binding, sch, alloc)
		if err != nil {
			return nil, err
		}
		kids[i] = kid
	}
	return tree.New(sch, alloc, tmpl.Tag, kids, tmpl.Lits)
}
