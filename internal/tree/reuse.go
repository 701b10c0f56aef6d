package tree

import "repro/internal/uri"

// This file implements digest reuse. Digests are functions of structure and
// literals only, never of URIs, so a node known to be content-identical to
// an already-hashed node can copy that node's digests instead of hashing:
//
//   - Rebuilt constructs a node content-identical to an existing template
//     node and copies the template's digests outright, which the differ
//     uses when assembling patched trees (every patched node is
//     content-identical to its target counterpart by construction);
//   - CloneKeepDigests extends the same observation to whole trees that
//     already carry digests of the desired kind: a re-numbered copy keeps
//     them verbatim (HashedWith tells when that is sound). A reparse
//     shares the statements it reused and copies only one it cannot
//     share without putting a node twice in its tree.

// Rebuilt constructs a node with the given URI, kids, and the tag and
// literals of the template node like, copying like's digests instead of
// recomputing them. It is valid only when the result is content-identical
// to like: same tag, equal literal values, and kids whose digests equal
// like's kids' digests. The differ satisfies this by construction when it
// reassembles patched trees — each patched subtree is content-identical to
// its target counterpart — which makes rehashing provably redundant there.
// The URI is reserved in alloc so future allocations cannot collide.
//
// The result's schema record is like's when every kid carries that record
// too, and nil otherwise.
func Rebuilt(like *Node, alloc *uri.Allocator, u uri.URI, kids []*Node) *Node {
	alloc.Reserve(u)
	n := *like
	n.URI = u
	n.Kids = kids
	n.Lits = append([]any(nil), like.Lits...)
	n.sch = subtreeSchema(like.sch, kids)
	return &n
}

// HashedWith reports whether n carries digests of the given kind.
func HashedWith(n *Node, kind HashKind) bool { return n.hashed && n.kind == kind }

// CloneKeepDigests deep-copies the tree with fresh URIs from alloc, copying
// the existing digests instead of recomputing them. Digests are functions of
// structure and literals only — never URIs — so the copy's digests are the
// original's by construction. Valid only when n already carries digests of
// the desired kind (check with HashedWith); pylang uses it to copy a
// reused statement it cannot share, without hashing it again.
//
// It is an arena copy: the nodes come from one slice and the kid slots from
// another, both sized by n.Size(), so a call allocates twice however large
// the tree. Each copy shares its original's literal slice, which no Node
// ever writes. URIs are drawn in post-order, and schema records are kept.
func CloneKeepDigests(n *Node, alloc *uri.Allocator) *Node {
	size := n.Size()
	c := copier{alloc: alloc, nodes: make([]Node, size), kids: make([]*Node, max(size-1, 0))}
	return c.copy(n)
}

// copier is the state of CloneKeepDigests: the unused parts of its two
// arenas.
type copier struct {
	alloc *uri.Allocator
	nodes []Node
	kids  []*Node
}

func (c *copier) copy(n *Node) *Node {
	var kids []*Node
	if k := len(n.Kids); k > 0 {
		// A tree assembled without New may record too small a size; its
		// nodes overflow the arenas into ordinary allocations.
		if len(c.kids) >= k {
			kids, c.kids = c.kids[:k:k], c.kids[k:]
		} else {
			kids = make([]*Node, k)
		}
		for i, kid := range n.Kids {
			kids[i] = c.copy(kid)
		}
	}
	var m *Node
	if len(c.nodes) > 0 {
		m, c.nodes = &c.nodes[0], c.nodes[1:]
	} else {
		m = new(Node)
	}
	*m = *n
	m.URI = c.alloc.Fresh()
	m.Kids = kids
	return m
}
