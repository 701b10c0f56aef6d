package truediff

import (
	"fmt"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// This file explores the direction the paper's §7 leaves open: "it may be
// possible to make the approach by Chawathe et al. type-safe. In
// particular, it may be possible to generate detach and attach edits
// instead of move edits, but to use their similarity scores. We have not
// explored this direction."
//
// DiffWithMatching does exactly that: it accepts an externally computed
// node matching — for instance from the Gumtree similarity matcher running
// on the same trees — and emits a well-typed truechange edit script that
// realizes it. Matched subtrees are kept (morphing their contents
// recursively), unmatched source material is unloaded, unmatched target
// material is loaded, and relocations become detach/attach pairs instead
// of moves, so every intermediate tree remains well-typed.

// MatchPair associates one source subtree with one target subtree.
type MatchPair struct {
	Src *tree.Node
	Dst *tree.Node
}

// DiffWithMatching generates a well-typed truechange script from the given
// matching instead of truediff's own hash-based subtree assignment. The
// matching must be one-to-one; pairs whose tags differ are dropped (a node
// cannot be morphed into a different constructor), as are pairs whose
// nodes do not belong to the given trees.
func (d *Differ) DiffWithMatching(src, dst *tree.Node, matches []MatchPair, alloc *uri.Allocator) (*Result, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("truediff: %w", derrors.ErrNilTree)
	}
	alloc = allocFor(src, alloc)
	if err := d.checkSchema(src, nil); err != nil {
		return nil, err
	}
	if err := d.checkSchema(dst, nil); err != nil {
		return nil, err
	}
	inSrc := make(map[*tree.Node]bool, src.Size())
	tree.Walk(src, func(n *tree.Node) { inSrc[n] = true })
	inDst := make(map[*tree.Node]bool, dst.Size())
	tree.Walk(dst, func(n *tree.Node) { inDst[n] = true })

	r := &run{sch: d.sch, opts: d.opts, s: NewScratch(), alloc: alloc, external: true}
	for _, m := range matches {
		if m.Src == nil || m.Dst == nil || m.Src.Tag != m.Dst.Tag {
			continue
		}
		if !inSrc[m.Src] || !inDst[m.Dst] {
			continue
		}
		if r.s.assigned[m.Src] != nil || r.s.assigned[m.Dst] != nil {
			return nil, fmt.Errorf("truediff: %w: at %s/%s", derrors.ErrBadMatching, m.Src.URI, m.Dst.URI)
		}
		r.assign(m.Src, m.Dst)
	}
	patched := r.computeEdits(src, dst, truechange.RootRef, sig.RootLink)
	return &Result{Script: r.s.buf.Script(), Patched: patched}, nil
}
