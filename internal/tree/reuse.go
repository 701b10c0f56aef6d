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
//     them verbatim (the engine ingests pre-hashed trees this way, and
//     HashedWith tells it when that is sound).

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
// the desired kind (check with HashedWith); the engine uses it to admit
// pre-hashed trees into its store without paying for hashing at all.
func CloneKeepDigests(n *Node, alloc *uri.Allocator) *Node {
	kids := make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = CloneKeepDigests(k, alloc)
	}
	c := *n
	c.URI = alloc.Fresh()
	c.Kids = kids
	c.Lits = append([]any(nil), n.Lits...)
	return &c
}
