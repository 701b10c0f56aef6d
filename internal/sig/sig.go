// Package sig defines the static vocabulary of typed trees: constructor
// tags, links, sorts with subtyping, literal base types, and constructor
// signatures Σ.
//
// A signature, written in the paper as
//
//	Σ ::= ε | Σ, tag : (⟨x1:T1, …, xm:Tm⟩, ⟨y1:B1, …, yn:Bn⟩) → T
//
// assigns each constructor tag a list of child links with their expected
// sorts, a list of literal links with their base types, and a result sort.
// A Schema collects the signatures of a tree language together with its
// sort-subtyping relation; it is consulted by tree construction, by the
// truechange linear type checker, and by the standard semantics.
package sig

import (
	"fmt"
	"sort"
	"strings"
)

// Tag names a tree constructor (the paper writes tags without quotes,
// e.g. Add, Mul, Var).
type Tag string

// RootTag is the tag of the pre-defined root node that anchors every
// mutable tree. Its signature is (⟨RootLink : Any⟩, ⟨⟩) → Root.
const RootTag Tag = "⊤Root"

// Link names the edge between a parent node and one of its children or
// literals (the paper writes links as quoted strings, e.g. "e1").
type Link string

// RootLink is the single child link of the pre-defined root node.
const RootLink Link = "root"

// Sort is a tree type. Sorts form a subtyping hierarchy with Any at the
// top; constructor result sorts and child expectations are drawn from it.
type Sort string

const (
	// Any is the top sort: every sort is a subsort of Any.
	Any Sort = "Any"
	// RootSort is the sort of the pre-defined root node.
	RootSort Sort = "Root"
)

// BaseType classifies literal values stored at nodes.
type BaseType uint8

// The base types supported for literals.
const (
	AnyLit BaseType = iota // any literal value
	StringLit
	IntLit
	FloatLit
	BoolLit
)

// String returns the name of the base type.
func (b BaseType) String() string {
	switch b {
	case AnyLit:
		return "any"
	case StringLit:
		return "string"
	case IntLit:
		return "int"
	case FloatLit:
		return "float"
	case BoolLit:
		return "bool"
	default:
		return fmt.Sprintf("BaseType(%d)", uint8(b))
	}
}

// Admits reports whether the Go value v conforms to base type b. Literals
// are restricted to string, int64, float64, and bool.
func (b BaseType) Admits(v any) bool {
	switch b {
	case AnyLit:
		switch v.(type) {
		case string, int64, float64, bool:
			return true
		}
		return false
	case StringLit:
		_, ok := v.(string)
		return ok
	case IntLit:
		_, ok := v.(int64)
		return ok
	case FloatLit:
		_, ok := v.(float64)
		return ok
	case BoolLit:
		_, ok := v.(bool)
		return ok
	default:
		return false
	}
}

// KidSpec declares one child slot of a constructor: the link that names it
// and the sort a subtree attached there must have (up to subtyping).
type KidSpec struct {
	Link Link
	Sort Sort
}

// LitSpec declares one literal slot of a constructor.
type LitSpec struct {
	Link Link
	Type BaseType
}

// Sig is the signature of a single constructor tag.
type Sig struct {
	Tag    Tag
	Kids   []KidSpec
	Lits   []LitSpec
	Result Sort
}

// KidIndex returns the position of the child link l, or -1.
func (s *Sig) KidIndex(l Link) int {
	for i, k := range s.Kids {
		if k.Link == l {
			return i
		}
	}
	return -1
}

// LitIndex returns the position of the literal link l, or -1.
func (s *Sig) LitIndex(l Link) int {
	for i, k := range s.Lits {
		if k.Link == l {
			return i
		}
	}
	return -1
}

// String renders the signature in the paper's notation.
func (s *Sig) String() string {
	var b strings.Builder
	b.WriteString(string(s.Tag))
	b.WriteString(" : (⟨")
	for i, k := range s.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", k.Link, k.Sort)
	}
	b.WriteString("⟩, ⟨")
	for i, l := range s.Lits {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", l.Link, l.Type)
	}
	fmt.Fprintf(&b, "⟩) → %s", s.Result)
	return b.String()
}

// Schema is a set of constructor signatures together with a sort hierarchy.
// The zero value is not usable; construct schemas with NewSchema.
type Schema struct {
	name   string
	sigs   map[Tag]*Sig
	parent map[Sort]Sort // immediate supersort; absent entries have parent Any
}

// NewSchema returns an empty schema with the given descriptive name. The
// pre-defined root signature is installed automatically.
func NewSchema(name string) *Schema {
	s := &Schema{
		name:   name,
		sigs:   make(map[Tag]*Sig),
		parent: make(map[Sort]Sort),
	}
	s.mustDeclare(Sig{
		Tag:    RootTag,
		Kids:   []KidSpec{{Link: RootLink, Sort: Any}},
		Result: RootSort,
	})
	return s
}

// Name returns the schema's descriptive name.
func (s *Schema) Name() string { return s.name }

// DeclareSort registers sub as an immediate subsort of super. Declaring a
// sort under Any is allowed but redundant. DeclareSort returns an error if
// the declaration would create a cycle or contradict an earlier one.
func (s *Schema) DeclareSort(sub, super Sort) error {
	if sub == Any {
		return fmt.Errorf("sig: cannot declare supersort of Any")
	}
	if old, ok := s.parent[sub]; ok && old != super {
		return fmt.Errorf("sig: sort %s already declared under %s, cannot redeclare under %s", sub, old, super)
	}
	// Reject cycles: walking up from super must not reach sub.
	for cur := super; cur != Any; {
		if cur == sub {
			return fmt.Errorf("sig: sort cycle: %s ≤ %s ≤ %s", sub, super, sub)
		}
		next, ok := s.parent[cur]
		if !ok {
			break
		}
		cur = next
	}
	s.parent[sub] = super
	return nil
}

// MustDeclareSort is DeclareSort but panics on error; intended for static
// schema definitions in package init code.
func (s *Schema) MustDeclareSort(sub, super Sort) {
	if err := s.DeclareSort(sub, super); err != nil {
		panic(err)
	}
}

// IsSubsort reports whether sub <: super in the schema's hierarchy. Every
// sort is a subsort of itself and of Any.
func (s *Schema) IsSubsort(sub, super Sort) bool {
	if super == Any || sub == super {
		return true
	}
	for cur := sub; ; {
		next, ok := s.parent[cur]
		if !ok {
			return false
		}
		if next == super {
			return true
		}
		cur = next
	}
}

// Declare registers the signature of a constructor tag. Links must be
// distinct within the signature, and the tag must be new.
func (s *Schema) Declare(g Sig) error {
	if g.Tag == "" {
		return fmt.Errorf("sig: empty tag")
	}
	if _, ok := s.sigs[g.Tag]; ok {
		return fmt.Errorf("sig: tag %s already declared", g.Tag)
	}
	seen := make(map[Link]bool, len(g.Kids)+len(g.Lits))
	for _, k := range g.Kids {
		if k.Link == "" {
			return fmt.Errorf("sig: tag %s has an empty kid link", g.Tag)
		}
		if seen[k.Link] {
			return fmt.Errorf("sig: tag %s declares link %q twice", g.Tag, k.Link)
		}
		seen[k.Link] = true
	}
	for _, l := range g.Lits {
		if l.Link == "" {
			return fmt.Errorf("sig: tag %s has an empty literal link", g.Tag)
		}
		if seen[l.Link] {
			return fmt.Errorf("sig: tag %s declares link %q twice", g.Tag, l.Link)
		}
		seen[l.Link] = true
	}
	if g.Result == "" {
		return fmt.Errorf("sig: tag %s has no result sort", g.Tag)
	}
	cp := g
	cp.Kids = append([]KidSpec(nil), g.Kids...)
	cp.Lits = append([]LitSpec(nil), g.Lits...)
	s.sigs[g.Tag] = &cp
	return nil
}

func (s *Schema) mustDeclare(g Sig) {
	if err := s.Declare(g); err != nil {
		panic(err)
	}
}

// MustDeclare is Declare but panics on error; intended for static schema
// definitions in package init code.
func (s *Schema) MustDeclare(g Sig) { s.mustDeclare(g) }

// Lookup returns the signature of tag, or nil if the tag is not declared.
func (s *Schema) Lookup(t Tag) *Sig { return s.sigs[t] }

// ResultSort returns the result sort of tag and whether it is declared.
func (s *Schema) ResultSort(t Tag) (Sort, bool) {
	g, ok := s.sigs[t]
	if !ok {
		return "", false
	}
	return g.Result, true
}

// Tags returns all declared tags in lexicographic order (including RootTag).
func (s *Schema) Tags() []Tag {
	out := make([]Tag, 0, len(s.sigs))
	for t := range s.sigs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TagsOfSort returns all tags whose result sort is a subsort of want,
// in lexicographic order. It is used by generators and by the corpus.
func (s *Schema) TagsOfSort(want Sort) []Tag {
	var out []Tag
	for t, g := range s.sigs {
		if t == RootTag {
			continue
		}
		if s.IsSubsort(g.Result, want) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
