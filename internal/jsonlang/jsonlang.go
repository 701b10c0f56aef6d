// Package jsonlang maps JSON documents onto typed trees, exercising the
// paper's claim that structural patches serve beyond ASTs — change
// detection in hierarchically structured database records is the original
// motivation of Chawathe et al. (paper §1 cites databases as a use case).
//
// Objects become Member cons lists (preserving member order), arrays
// become element cons lists, and scalars become leaves. Diffing two JSON
// documents with truediff then yields concise, type-safe truechange
// patches over the document structure.
package jsonlang

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Sorts of the JSON schema.
const (
	SortValue   sig.Sort = "Value"
	SortMember  sig.Sort = "Member"
	SortMembers sig.Sort = "MemberList"
	SortElems   sig.Sort = "ElemList"
)

// Tags of the JSON schema.
const (
	TagObject  sig.Tag = "Object"
	TagMember  sig.Tag = "Member"
	TagMemCons sig.Tag = "MemberCons"
	TagMemNil  sig.Tag = "MemberNil"
	TagArray   sig.Tag = "Array"
	TagElCons  sig.Tag = "ElemCons"
	TagElNil   sig.Tag = "ElemNil"
	TagString  sig.Tag = "String"
	TagNumber  sig.Tag = "Number"
	TagBool    sig.Tag = "Bool"
	TagNull    sig.Tag = "Null"
)

// Schema returns the JSON document schema. Every call returns the same
// instance, built on first use; it is shared, so it must not be declared
// into.
func Schema() *sig.Schema { return schema() }

var schema = sync.OnceValue(func() *sig.Schema {
	s := sig.NewSchema("json")
	kid := func(l sig.Link, srt sig.Sort) sig.KidSpec { return sig.KidSpec{Link: l, Sort: srt} }
	s.MustDeclare(sig.Sig{Tag: TagObject, Kids: []sig.KidSpec{kid("members", SortMembers)}, Result: SortValue})
	s.MustDeclare(sig.Sig{Tag: TagMember,
		Kids:   []sig.KidSpec{kid("value", SortValue)},
		Lits:   []sig.LitSpec{{Link: "key", Type: sig.StringLit}},
		Result: SortMember})
	s.MustDeclare(sig.Sig{Tag: TagMemCons,
		Kids:   []sig.KidSpec{kid("head", SortMember), kid("tail", SortMembers)},
		Result: SortMembers})
	s.MustDeclare(sig.Sig{Tag: TagMemNil, Result: SortMembers})
	s.MustDeclare(sig.Sig{Tag: TagArray, Kids: []sig.KidSpec{kid("elems", SortElems)}, Result: SortValue})
	s.MustDeclare(sig.Sig{Tag: TagElCons,
		Kids:   []sig.KidSpec{kid("head", SortValue), kid("tail", SortElems)},
		Result: SortElems})
	s.MustDeclare(sig.Sig{Tag: TagElNil, Result: SortElems})
	s.MustDeclare(sig.Sig{Tag: TagString, Lits: []sig.LitSpec{{Link: "v", Type: sig.StringLit}}, Result: SortValue})
	s.MustDeclare(sig.Sig{Tag: TagNumber, Lits: []sig.LitSpec{{Link: "v", Type: sig.FloatLit}}, Result: SortValue})
	s.MustDeclare(sig.Sig{Tag: TagBool, Lits: []sig.LitSpec{{Link: "v", Type: sig.BoolLit}}, Result: SortValue})
	s.MustDeclare(sig.Sig{Tag: TagNull, Result: SortValue})
	return s
})

// Codec converts between JSON text and typed trees over one schema and
// allocator (so URIs stay unique across versions of a document).
type Codec struct {
	sch   *sig.Schema
	alloc *uri.Allocator
}

// NewCodec returns a codec over the shared JSON schema and a fresh
// allocator.
func NewCodec() *Codec {
	return &Codec{sch: Schema(), alloc: uri.NewAllocator()}
}

// Schema returns the codec's schema.
func (c *Codec) Schema() *sig.Schema { return c.sch }

// Alloc returns the codec's allocator.
func (c *Codec) Alloc() *uri.Allocator { return c.alloc }

// Parse decodes a JSON document into a typed tree. Member order is
// preserved (the decoder reads tokens, not maps).
func (c *Codec) Parse(src string) (*tree.Node, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.UseNumber()
	n, err := c.value(dec)
	if err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("jsonlang: trailing content")
	}
	return n, nil
}

func (c *Codec) value(dec *json.Decoder) (*tree.Node, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("jsonlang: %w", err)
	}
	return c.fromToken(dec, tok)
}

func (c *Codec) fromToken(dec *json.Decoder, tok json.Token) (*tree.Node, error) {
	switch v := tok.(type) {
	case json.Delim:
		switch v {
		case '{':
			var members []*tree.Node
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, fmt.Errorf("jsonlang: %w", err)
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("jsonlang: object key is not a string")
				}
				val, err := c.value(dec)
				if err != nil {
					return nil, err
				}
				m, err := tree.New(c.sch, c.alloc, TagMember, []*tree.Node{val}, []any{key})
				if err != nil {
					return nil, err
				}
				members = append(members, m)
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, fmt.Errorf("jsonlang: %w", err)
			}
			spine, err := c.spine(TagMemCons, TagMemNil, members)
			if err != nil {
				return nil, err
			}
			return tree.New(c.sch, c.alloc, TagObject, []*tree.Node{spine}, nil)
		case '[':
			var elems []*tree.Node
			for dec.More() {
				el, err := c.value(dec)
				if err != nil {
					return nil, err
				}
				elems = append(elems, el)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, fmt.Errorf("jsonlang: %w", err)
			}
			spine, err := c.spine(TagElCons, TagElNil, elems)
			if err != nil {
				return nil, err
			}
			return tree.New(c.sch, c.alloc, TagArray, []*tree.Node{spine}, nil)
		default:
			return nil, fmt.Errorf("jsonlang: unexpected delimiter %q", v)
		}
	case string:
		return tree.New(c.sch, c.alloc, TagString, nil, []any{v})
	case json.Number:
		f, err := v.Float64()
		if err != nil {
			return nil, fmt.Errorf("jsonlang: %w", err)
		}
		return tree.New(c.sch, c.alloc, TagNumber, nil, []any{f})
	case bool:
		return tree.New(c.sch, c.alloc, TagBool, nil, []any{v})
	case nil:
		return tree.New(c.sch, c.alloc, TagNull, nil, nil)
	default:
		return nil, fmt.Errorf("jsonlang: unexpected token %v", tok)
	}
}

func (c *Codec) spine(cons, nilTag sig.Tag, elems []*tree.Node) (*tree.Node, error) {
	out, err := tree.New(c.sch, c.alloc, nilTag, nil, nil)
	if err != nil {
		return nil, err
	}
	for i := len(elems) - 1; i >= 0; i-- {
		out, err = tree.New(c.sch, c.alloc, cons, []*tree.Node{elems[i], out}, nil)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render encodes the tree back to compact JSON text.
func Render(n *tree.Node) string {
	var b strings.Builder
	render(n, &b)
	return b.String()
}

func render(n *tree.Node, b *strings.Builder) {
	switch n.Tag {
	case TagObject:
		b.WriteByte('{')
		for i, m := range listElems(n.Kids[0]) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(m.Lits[0].(string)))
			b.WriteByte(':')
			render(m.Kids[0], b)
		}
		b.WriteByte('}')
	case TagArray:
		b.WriteByte('[')
		for i, el := range listElems(n.Kids[0]) {
			if i > 0 {
				b.WriteByte(',')
			}
			render(el, b)
		}
		b.WriteByte(']')
	case TagString:
		b.WriteString(strconv.Quote(n.Lits[0].(string)))
	case TagNumber:
		b.WriteString(strconv.FormatFloat(n.Lits[0].(float64), 'g', -1, 64))
	case TagBool:
		b.WriteString(strconv.FormatBool(n.Lits[0].(bool)))
	case TagNull:
		b.WriteString("null")
	}
}

func listElems(spine *tree.Node) []*tree.Node {
	var out []*tree.Node
	for spine != nil && len(spine.Kids) == 2 {
		out = append(out, spine.Kids[0])
		spine = spine.Kids[1]
	}
	return out
}
