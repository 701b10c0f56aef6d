package pylang

import (
	"math"

	"repro/internal/tree"
)

// This file makes parsing incremental. A factory keeps an index of its last
// successful parse: the exact text of every statement, at every nesting
// level, with the nodes that text parsed to. Parse looks each statement up
// before parsing it. On a hit it takes the indexed nodes, digests included,
// and skips the statement's tokens; only changed statements and the spines
// above them are built and hashed.
//
// A statement's text runs from the start of its first line, indentation
// included, to the start of the line of the next statement at the same or
// an outer level, or to the end of input. The same text always lexes to the
// same tokens and so parses to the same nodes, whatever surrounds it. The
// boundary is found by scanning the tokens ahead of the parser (stmtEnd),
// and a statement is indexed only when the parser stopped exactly at the
// scanned end, so a wrong scan costs a miss, never a wrong tree.
//
// The tree a parse builds from indexed and new nodes is its cache tree: the
// next parse's index points into it and cuts its texts from this parse's
// source, so a factory holds one tree and one source text. The cache tree
// shares reused statements with trees handed out earlier, so Parse hands
// out a copy of each of them instead (fresh).

// index is one parse's statements by their exact text.
type index struct {
	src string // the parsed source; every text is a substring of it
	// recs holds the records in source order, each followed by the records
	// of the statements nested in it.
	recs  []stmtRec
	nodes []*tree.Node // the records' nodes
	// at maps a statement's text to its record. The next parse builds it
	// at its first lookup, so a kept index holds no map between parses.
	// Equal texts parse to equal nodes, so when two statements share a
	// text either record serves.
	at map[string]int32
}

// stmtRec is one indexed statement: its text src[off:end], the nodes it
// parsed to, nodes[first:first+n], and the number of records nested in it,
// which follow it in recs. One statement line may parse to several nodes:
// a ';'-joined line, a multi-name import, a chained assignment.
type stmtRec struct {
	off, end, first, n, nested int32
}

// next returns an empty index for a parse of src, sized like ix, which may
// be nil. It returns nil when src is too long for 32-bit offsets: such a
// parse indexes nothing.
func (ix *index) next(src string) *index {
	if len(src) > math.MaxInt32 {
		return nil
	}
	var recs, nodes int
	if ix != nil {
		recs, nodes = len(ix.recs), len(ix.nodes)
	}
	return &index{src: src, recs: make([]stmtRec, 0, recs), nodes: make([]*tree.Node, 0, nodes)}
}

// lookup returns the record of the statement whose text is text.
func (ix *index) lookup(text string) (int32, bool) {
	if ix.at == nil {
		ix.at = make(map[string]int32, len(ix.recs))
		for i, rec := range ix.recs {
			ix.at[ix.src[rec.off:rec.end]] = int32(i)
		}
	}
	r, ok := ix.at[text]
	return r, ok
}

// adopt indexes record r of the kept index old, and every record nested in
// it, for a parse in which r's text starts at off; it returns r's nodes.
func (ix *index) adopt(old *index, r int32, off int) []*tree.Node {
	top := old.recs[r]
	delta := int32(off) - top.off
	for _, rec := range old.recs[r : r+1+top.nested] {
		nodes := old.nodes[rec.first : rec.first+rec.n]
		rec.off += delta
		rec.end += delta
		rec.first = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, nodes...)
		ix.recs = append(ix.recs, rec)
	}
	return old.nodes[top.first : top.first+top.n]
}

// listStmt parses the statement at a position of a statement list: the
// module body or an indented suite. It reuses the kept index's nodes when
// the statement's text is unchanged, and indexes the statement for the
// next parse.
func (p *parser) listStmt() []*tree.Node {
	ix := p.ix
	// No statement starts at an INDENT, DEDENT, NEWLINE or EOF, so the
	// parse is about to fail; and the text such a token would cut lexes to
	// other tokens where the line is not indented the same.
	if k := p.cur().Kind; ix == nil || k == TokIndent || k == TokDedent || k == TokNewline || k == TokEOF {
		return p.stmt()
	}
	end := p.stmtEnd()
	off, stop := p.cut(p.pos), p.cut(end)
	if old := p.f.last; old != nil {
		if r, ok := old.lookup(p.src[off:stop]); ok {
			p.pos, p.reused = end, true
			return ix.adopt(old, r, off)
		}
	}
	r, first := len(ix.recs), len(ix.nodes)
	ix.recs = append(ix.recs, stmtRec{off: int32(off), end: int32(stop)})
	nodes := p.stmt()
	if p.pos != end {
		// The scan disagreed with the parser: forget the statement and
		// everything indexed inside it.
		ix.recs, ix.nodes = ix.recs[:r], ix.nodes[:first]
		return nodes
	}
	ix.nodes = append(ix.nodes, nodes...)
	ix.recs[r].first, ix.recs[r].n = int32(len(ix.nodes)-len(nodes)), int32(len(nodes))
	ix.recs[r].nested = int32(len(ix.recs) - r - 1)
	return nodes
}

// stmtEnd scans ahead for the end of the statement at p.pos and returns the
// index of the token after it: the first token of the next logical line at
// the statement's own indentation, a DEDENT below it, or EOF. A line that
// starts with else, elif, except or finally continues the statement, and
// so does every line after a decorator line.
func (p *parser) stmtEnd() int {
	depth, deco, bol := 0, false, true
	for i := p.pos; ; i++ {
		t := &p.toks[i]
		switch t.Kind {
		case TokEOF:
			return i
		case TokNewline:
			bol = true
		case TokIndent:
			depth++
		case TokDedent:
			if depth == 0 {
				return i
			}
			depth--
		default:
			if bol && depth == 0 {
				if i > p.pos && !deco && !continues(t) {
					return i
				}
				deco = t.Kind == TokOp && t.Text == "@"
			}
			bol = false
		}
	}
}

// continues reports whether a line starting with t continues the statement
// above it.
func continues(t *Token) bool {
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "else", "elif", "except", "finally":
		return true
	}
	return false
}

// cut returns the byte offset at which a statement starting or ending at
// token i is cut: the start of the token's line. DEDENT and EOF tokens
// already sit at a line start or at the end of input.
func (p *parser) cut(i int) int {
	t := &p.toks[i]
	if t.Kind == TokDedent || t.Kind == TokEOF {
		return t.Off
	}
	return t.Off - (t.Col - 1)
}

// fresh returns the tree Parse hands out for its cache tree n. A node at or
// below p.mark is a statement reused from an earlier parse, which may have
// been handed out already: fresh copies it with its digests and rebuilds
// its ancestors around the copies, copying their digests too. Nodes built
// by this parse are shared.
func (p *parser) fresh(n *tree.Node) *tree.Node {
	if n.URI <= p.mark {
		return tree.CloneKeepDigests(n, p.f.alloc)
	}
	var kids []*tree.Node
	for i, k := range n.Kids {
		c := p.fresh(k)
		if c != k && kids == nil {
			kids = make([]*tree.Node, len(n.Kids))
			copy(kids, n.Kids[:i])
		}
		if kids != nil {
			kids[i] = c
		}
	}
	if kids == nil {
		return n
	}
	return tree.Rebuilt(n, p.f.alloc, p.f.alloc.Fresh(), kids)
}
