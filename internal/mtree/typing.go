package mtree

import (
	"fmt"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// This file implements the metatheoretic definitions of paper §3.4 that
// connect the standard semantics to the truechange type system: generalized
// tree typing relative to empty slots (Definition 3.3), MTree typing
// relative to slots and roots (Definition 3.4), and syntactic compliance of
// edit scripts (Definition 3.5). Tests use them to validate Theorem 3.6
// (type safety) on concrete trees and scripts.

// CheckNode implements Definition 3.3 (MNode typing): n is well-typed
// relative to slots S if its tag's signature admits its literals and every
// kid is either an empty slot recorded in S (with a compatible sort) or a
// recursively well-typed subtree of a compatible sort. It returns the
// node's sort.
func (mt *MTree) CheckNode(n *MNode, slots map[truechange.Slot]sig.Sort) (sig.Sort, error) {
	g := mt.sch.Lookup(n.Tag)
	if g == nil {
		return "", fmt.Errorf("mtree: undeclared tag %s", n.Tag)
	}
	if len(n.Lits) != len(g.Lits) {
		return "", fmt.Errorf("mtree: node %s has %d literals, signature of %s expects %d",
			n.URI, len(n.Lits), n.Tag, len(g.Lits))
	}
	for i, spec := range g.Lits {
		if v := n.Lits[i]; !spec.Type.Admits(v) {
			return "", fmt.Errorf("mtree: node %s literal %q: %#v does not conform to %s",
				n.URI, spec.Link, v, spec.Type)
		}
	}
	if len(n.Kids) != len(g.Kids) {
		return "", fmt.Errorf("mtree: node %s has %d kid links, signature of %s expects %d",
			n.URI, len(n.Kids), n.Tag, len(g.Kids))
	}
	for i, spec := range g.Kids {
		k := n.Kids[i]
		if k == nil {
			slot := truechange.Slot{URI: n.URI, Link: spec.Link}
			slotSort, recorded := slots[slot]
			if !recorded {
				return "", fmt.Errorf("mtree: node %s has empty slot %q not recorded in S", n.URI, spec.Link)
			}
			if !mt.sch.IsSubsort(slotSort, spec.Sort) {
				return "", fmt.Errorf("mtree: slot %s: sort %s is not a subsort of %s",
					slot, slotSort, spec.Sort)
			}
			continue
		}
		kidSort, err := mt.CheckNode(k, slots)
		if err != nil {
			return "", err
		}
		if !mt.sch.IsSubsort(kidSort, spec.Sort) {
			return "", fmt.Errorf("mtree: node %s kid %q: sort %s is not a subsort of %s",
				n.URI, spec.Link, kidSort, spec.Sort)
		}
	}
	return g.Result, nil
}

// CheckTree implements Definition 3.4 (MTree typing): every slot in S must
// name an indexed node with that link, and every root in R must name an
// indexed node whose sort (relative to S) is a subsort of its recorded sort.
func (mt *MTree) CheckTree(st *truechange.State) error {
	for slot := range st.Slots {
		p := mt.index[slot.URI]
		if p == nil {
			return fmt.Errorf("mtree: slot %s names an unindexed node", slot)
		}
		if mt.kidIndex(p, slot.Link) < 0 {
			return fmt.Errorf("mtree: slot %s: node has no such link", slot)
		}
	}
	for r, want := range st.Roots {
		n := mt.index[r]
		if n == nil {
			return fmt.Errorf("mtree: root %s is not indexed", r)
		}
		got, err := mt.CheckNode(n, st.Slots)
		if err != nil {
			return fmt.Errorf("mtree: root %s: %w", r, err)
		}
		if !mt.sch.IsSubsort(got, want) {
			return fmt.Errorf("mtree: root %s has sort %s, not a subsort of recorded %s", r, got, want)
		}
	}
	return nil
}

// CheckClosed reports whether the tree is closed and well-typed: a single
// attached tree under the pre-defined root, no empty slots anywhere
// (Σ, ε ⊢ t.root : Root).
func (mt *MTree) CheckClosed() error {
	// Walk from the root first: a URI reached twice means a node attached
	// in two places or in a cycle, which an ill-typed script can build.
	// That is no tree, and typing a cycle would never end.
	reach := make(map[uri.URI]bool, len(mt.index))
	var twice *MNode
	var walk func(n *MNode)
	walk = func(n *MNode) {
		if n == nil || twice != nil {
			return
		}
		if reach[n.URI] {
			twice = n
			return
		}
		reach[n.URI] = true
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(mt.root)
	if twice != nil {
		return fmt.Errorf("mtree: node %s is reached twice from the root", twice.URI)
	}
	// CheckTree validates the root against empty S, which already rejects
	// any nil slot below it. Additionally ensure the index holds no stray
	// detached roots: every indexed node must be reachable from the root.
	if err := mt.CheckTree(truechange.ClosedState()); err != nil {
		return err
	}
	for u := range mt.index {
		if !reach[u] {
			return fmt.Errorf("mtree: indexed node %s is unreachable from the root", u)
		}
	}
	return nil
}

// Comply implements Definition 3.5 (syntactic compliance ∆ ≺ t): the
// script's edits must refer to URIs that exist in the tree with the
// designated tags and links, and loaded URIs must be fresh. Compliance is
// checked against the evolving tree, so it simulates the patch on a
// scratch copy without mutating the receiver.
func (mt *MTree) Comply(s *truechange.Script) error {
	scratch := mt.cloneShallow()
	for i, e := range s.Edits {
		if err := scratch.complyEdit(e); err != nil {
			return fmt.Errorf("mtree: %w: edit #%d: %w", derrors.ErrNonCompliantScript, i, err)
		}
		if err := scratch.ProcessEdit(e); err != nil {
			return fmt.Errorf("mtree: %w: edit #%d failed while checking compliance: %w",
				derrors.ErrNonCompliantScript, i, err)
		}
	}
	return nil
}

func (mt *MTree) complyEdit(e truechange.Edit) error {
	switch ed := e.(type) {
	case truechange.Detach:
		p := mt.index[ed.Parent.URI]
		if p == nil {
			return fmt.Errorf("detach: parent %s not indexed", ed.Parent)
		}
		if p.Tag != ed.Parent.Tag {
			return fmt.Errorf("detach: parent %s has tag %s, edit claims %s", ed.Parent.URI, p.Tag, ed.Parent.Tag)
		}
		i := mt.kidIndex(p, ed.Link)
		if i < 0 {
			return fmt.Errorf("detach: parent %s has no link %q", ed.Parent, ed.Link)
		}
		n := p.Kids[i]
		if n == nil {
			return fmt.Errorf("detach: slot %s.%s already empty", ed.Parent, ed.Link)
		}
		if n.URI != ed.Node.URI || n.Tag != ed.Node.Tag {
			return fmt.Errorf("detach: slot %s.%s holds %s%s, edit claims %s", ed.Parent, ed.Link, n.Tag, n.URI, ed.Node)
		}
		return nil

	case truechange.Attach:
		// Syntactic compliance is ensured by the type system already
		// (Definition 3.5, case 2); nothing to check here.
		return nil

	case truechange.Load:
		// Freshness is relative to the evolving tree: the URI must not be
		// indexed at the point the load applies. (A URI may be loaded,
		// unloaded, and loaded again within one script; each load is fresh
		// at its own point.)
		if _, exists := mt.index[ed.Node.URI]; exists {
			return fmt.Errorf("load: URI %s is not fresh", ed.Node.URI)
		}
		return nil

	case truechange.Unload:
		n := mt.index[ed.Node.URI]
		if n == nil {
			return fmt.Errorf("unload: node %s not indexed", ed.Node)
		}
		if n.Tag != ed.Node.Tag {
			return fmt.Errorf("unload: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		if err := mt.holds(n, ed.Kids, ed.Lits); err != nil {
			return fmt.Errorf("unload: %w", err)
		}
		return nil

	case truechange.Update:
		n := mt.index[ed.Node.URI]
		if n == nil {
			return fmt.Errorf("update: node %s not indexed", ed.Node)
		}
		if n.Tag != ed.Node.Tag {
			return fmt.Errorf("update: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		if err := mt.holdsLits(n, ed.Old); err != nil {
			return fmt.Errorf("update: %w", err)
		}
		return nil

	default:
		return fmt.Errorf("unknown edit kind %T", e)
	}
}

// cloneShallow copies the tree structure — nodes, kid slots and index —
// into arenas, sharing literal slices with the receiver: Update installs a
// new slice instead of writing into one, so the copy never changes the
// receiver's literals.
func (mt *MTree) cloneShallow() *MTree {
	c := &MTree{sch: mt.sch, index: make(map[uri.URI]*MNode, len(mt.index))}
	nodes := make([]MNode, 0, len(mt.index))
	slots := 0
	for _, n := range mt.index {
		slots += len(n.Kids)
	}
	arena := make([]*MNode, slots)
	for u, n := range mt.index {
		k := len(n.Kids)
		nodes = append(nodes, MNode{Tag: n.Tag, URI: n.URI, Kids: arena[:k:k], Lits: n.Lits, src: n.src})
		arena = arena[k:]
		c.index[u] = &nodes[len(nodes)-1]
	}
	for u, n := range mt.index {
		cn := c.index[u]
		for i, k := range n.Kids {
			if k != nil {
				cn.Kids[i] = c.index[k.URI]
			}
		}
	}
	c.root = c.index[uri.Root]
	return c
}
