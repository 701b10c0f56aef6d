// Package mtree implements the standard semantics of truechange edit
// scripts (paper §3.2, Figure 2): a mutable tree with an index of all
// loaded nodes, so that each edit operation executes in constant time.
//
// The semantics maintains two invariants that the truechange type system
// guarantees for well-typed scripts: links point to at most one subtree at
// any time (so one slot per link suffices, never a list), and patching
// never fails. The semantics itself tracks neither detached roots
// nor empty slots; empty slots occur as nil child entries, and detached
// roots remain reachable through the node index until they are unloaded.
//
// Against the untyped real world — scripts from the wire, hand-written
// scripts, foreign trees — Theorem 3.6 offers no protection, so Patch is
// transactional: every applied edit is journaled with the exact state it
// overwrote (the operational form of truechange.Invert), and the first
// failing edit rolls the journal back, restoring the pre-patch tree
// exactly. Failures carry the edit index and operation kind (PatchError)
// and match derrors.ErrNonCompliantScript.
package mtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/derrors"
	"repro/internal/faultinject"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// MNode is a mutable tree node: links to children and literal values can be
// updated destructively. Kids and Lits hold one entry per kid and literal
// link of the tag's signature, in signature order, so the signature's
// KidIndex and LitIndex position a link; a nil kid entry is an empty slot.
// Lits may be the literal slice of an immutable source node: replace it,
// never write into it.
type MNode struct {
	Tag  sig.Tag
	URI  uri.URI
	Kids []*MNode
	Lits []any

	// src is the immutable node this node mirrors, nil for a loaded node.
	// A node from FromTree shares src's literal slice: Update installs a
	// new slice rather than writing into the old one, so sharing is safe,
	// and while the slices are one, the literals are src's.
	src *tree.Node
}

// MTree is a mutable tree with a node index for constant-time access by
// URI. The root is the pre-defined node with URI 0 and the single child
// slot RootLink.
type MTree struct {
	sch    *sig.Schema
	root   *MNode
	index  map[uri.URI]*MNode
	faults *faultinject.Injector
	// kind is the digest algorithm of the source tree FromTree converted,
	// and maxURI its largest URI; ToTree rebuilds with the one and
	// reserves the other.
	kind   tree.HashKind
	maxURI uri.URI
	// made counts the nodes FromTree and Load made, unloaded ones
	// included: no path from the root visits more nodes than made+1
	// without a cycle.
	made int
}

// FaultSiteEdit is the fault-injection site Patch hits before every edit of
// a fault-injected tree (see InjectFaults): an Error fault armed there makes
// the edit fail, exercising the rollback path deterministically.
const FaultSiteEdit = "mtree/edit"

// InjectFaults arms the tree with a fault injector for tests: Patch hits
// FaultSiteEdit before applying each edit. A nil injector (the default)
// costs one nil check per edit.
func (mt *MTree) InjectFaults(in *faultinject.Injector) { mt.faults = in }

// rollbackCount counts Patch invocations, process-wide, that failed and
// rolled applied edits back. Exposed through Rollbacks so the engine's
// metrics endpoint can report structdiff_engine_rollbacks_total.
var rollbackCount atomic.Uint64

// Rollbacks returns the process-wide count of transactional Patch
// rollbacks (failed patches that had applied at least one edit).
func Rollbacks() uint64 { return rollbackCount.Load() }

// New returns an empty mutable tree: the pre-defined root node with its
// RootLink slot empty.
func New(sch *sig.Schema) *MTree { return newTree(sch, 0) }

// newTree returns an empty mutable tree whose index has room for size more
// nodes.
func newTree(sch *sig.Schema, size int) *MTree {
	root := &MNode{Tag: sig.RootTag, URI: uri.Root, Kids: make([]*MNode, 1)}
	index := make(map[uri.URI]*MNode, size+1)
	index[uri.Root] = root
	return &MTree{sch: sch, root: root, index: index}
}

// FromTree returns a mutable tree mirroring the immutable tree t attached
// under the root, with every node registered in the index under its
// existing URI. It is one pass over t: the nodes and their kid slots come
// from two arenas sized by t.Size(), every node shares its source node's
// literal slice, and the index is presized. Each node is checked against
// its tag's signature in sch unless t records sch as its schema (see
// tree.Node.Schema): then New has already checked every node against it.
func FromTree(sch *sig.Schema, t *tree.Node) (*MTree, error) {
	if t == nil {
		return New(sch), nil
	}
	size := t.Size()
	mt := newTree(sch, size)
	c := converter{
		sch:   sch,
		check: t.Schema() != sch,
		index: mt.index,
		nodes: make([]MNode, size),
		slots: make([]*MNode, max(size-1, 0)),
	}
	top, err := c.convert(t)
	if err != nil {
		return nil, err
	}
	mt.root.Kids[0] = top
	mt.kind, mt.maxURI, mt.made = t.HashKind(), c.maxURI, c.count
	return mt, nil
}

// converter is the state of FromTree's pass: the unused parts of the two
// arenas, and what the pass has counted so far.
type converter struct {
	sch    *sig.Schema
	check  bool
	index  map[uri.URI]*MNode
	nodes  []MNode
	slots  []*MNode
	count  int
	maxURI uri.URI
}

func (c *converter) convert(t *tree.Node) (*MNode, error) {
	if c.check {
		if err := tree.ValidateNode(c.sch, t); err != nil {
			return nil, fmt.Errorf("mtree: node %s: %w", t.URI, err)
		}
	}
	// A tree assembled without New may record too small a size; its nodes
	// overflow the arenas into ordinary allocations.
	var n *MNode
	if len(c.nodes) > 0 {
		n, c.nodes = &c.nodes[0], c.nodes[1:]
	} else {
		n = new(MNode)
	}
	k := len(t.Kids)
	var kids []*MNode
	if len(c.slots) >= k {
		kids, c.slots = c.slots[:k:k], c.slots[k:]
	} else {
		kids = make([]*MNode, k)
	}
	*n = MNode{Tag: t.Tag, URI: t.URI, Kids: kids, Lits: t.Lits, src: t}
	c.index[t.URI] = n
	c.count++
	// The index holds the root and every node so far unless t's URI was
	// taken.
	if len(c.index) != c.count+1 {
		return nil, fmt.Errorf("mtree: duplicate URI %s", t.URI)
	}
	c.maxURI = max(c.maxURI, t.URI)
	for i, kt := range t.Kids {
		kn, err := c.convert(kt)
		if err != nil {
			return nil, err
		}
		kids[i] = kn
	}
	return n, nil
}

// Root returns the pre-defined root node.
func (mt *MTree) Root() *MNode { return mt.root }

// Top returns the subtree attached at the root's RootLink slot, or nil if
// the tree is empty.
func (mt *MTree) Top() *MNode { return mt.root.Kids[0] }

// Lookup returns the node registered under u, or nil.
func (mt *MTree) Lookup(u uri.URI) *MNode { return mt.index[u] }

// Size returns the number of indexed nodes, excluding the pre-defined root.
func (mt *MTree) Size() int { return len(mt.index) - 1 }

// PatchError reports a failed Patch: which edit failed, its operation
// kind, the underlying cause, and whether applied edits were rolled back
// (false only when the first edit failed, leaving nothing to undo — the
// tree is in its pre-patch state either way). It matches both
// derrors.ErrNonCompliantScript and the cause via errors.Is/As.
type PatchError struct {
	// EditIndex is the zero-based position of the failing edit.
	EditIndex int
	// Op is the operation kind of the failing edit: "detach", "attach",
	// "load", "unload", or "update".
	Op string
	// RolledBack reports whether previously applied edits were undone.
	RolledBack bool
	// Cause is the ProcessEdit error of the failing edit.
	Cause error
}

func (e *PatchError) Error() string {
	state := "tree unchanged"
	if e.RolledBack {
		state = "tree rolled back"
	}
	return fmt.Sprintf("mtree: edit #%d (%s): %v (%s)", e.EditIndex, e.Op, e.Cause, state)
}

// Unwrap lets errors.Is match both the non-compliance sentinel and the
// specific cause.
func (e *PatchError) Unwrap() []error { return []error{derrors.ErrNonCompliantScript, e.Cause} }

// opKind names an edit's operation for error reports.
func opKind(e truechange.Edit) string {
	switch e.(type) {
	case truechange.Detach:
		return "detach"
	case truechange.Attach:
		return "attach"
	case truechange.Load:
		return "load"
	case truechange.Unload:
		return "unload"
	case truechange.Update:
		return "update"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// undo is one journal entry of a transactional Patch: the exact state an
// applied edit overwrote, captured at apply time. Undoing by captured
// state rather than by truechange.InvertEdit is what makes the rollback
// exact even for scripts whose edits lie about the tree (a stale Update.Old,
// an Attach into an occupied slot): the inverse edit would restore the
// script's claim, the journal restores the truth.
type undo struct {
	kind undoKind
	node *MNode  // undoSlot: whose slot to restore; undoUnload, undoLits: the node to restore
	slot int     // undoSlot: which slot
	prev *MNode  // undoSlot: the slot's previous occupant (may be nil)
	uri  uri.URI // undoLoad / undoUnload: which index entry
	lits []any   // undoLits: the literal slice the update replaced
}

type undoKind uint8

const (
	undoSlot   undoKind = iota // restore node.Kids[slot] = prev
	undoLoad                   // delete index[uri]
	undoUnload                 // restore index[uri] = node
	undoLits                   // restore node.Lits = lits
)

// Patch applies the edit script to the tree, mutating it in place: the
// standard semantics ⟦∆⟧. It returns an error (⊥) if an edit refers to a
// missing node or link; the type system rules this out for well-typed,
// syntactically compliant scripts (Theorem 3.6).
//
// Patch is transactional: applied edits are journaled, and on the first
// failing edit the journal is rolled back before returning, so the tree is
// restored to its exact pre-patch state (same nodes, same index, same
// literals) — never left half-mutated. The returned error is a *PatchError
// carrying the edit index and operation kind; it matches
// derrors.ErrNonCompliantScript.
func (mt *MTree) Patch(s *truechange.Script) error {
	journal := make([]undo, 0, len(s.Edits))
	for i, e := range s.Edits {
		err := mt.faults.Hit(FaultSiteEdit)
		var u undo
		if err == nil {
			u, err = mt.applyEdit(e)
		}
		if err != nil {
			rolledBack := len(journal) > 0
			mt.rollback(journal)
			if rolledBack {
				rollbackCount.Add(1)
			}
			return &PatchError{EditIndex: i, Op: opKind(e), RolledBack: rolledBack, Cause: err}
		}
		journal = append(journal, u)
	}
	return nil
}

// rollback undoes the journaled edits in reverse order, restoring the
// exact pre-patch tree.
func (mt *MTree) rollback(journal []undo) {
	for i := len(journal) - 1; i >= 0; i-- {
		u := journal[i]
		switch u.kind {
		case undoSlot:
			u.node.Kids[u.slot] = u.prev
		case undoLoad:
			delete(mt.index, u.uri)
			mt.made--
		case undoUnload:
			mt.index[u.uri] = u.node
		case undoLits:
			u.node.Lits = u.lits
		}
	}
}

// ProcessEdit applies a single edit to the tree, updating nodes and the
// index (Figure 2). Each edit is atomic: it either applies fully or
// returns an error leaving the tree untouched.
func (mt *MTree) ProcessEdit(e truechange.Edit) error {
	_, err := mt.applyEdit(e)
	return err
}

// kidIndex returns the position of n's kid link l, or -1 when n's
// signature has no such link.
func (mt *MTree) kidIndex(n *MNode, l sig.Link) int {
	if g := mt.sch.Lookup(n.Tag); g != nil {
		if i := g.KidIndex(l); i < len(n.Kids) {
			return i
		}
	}
	return -1
}

// kidLink names n's kid slot i, for error reports.
func (mt *MTree) kidLink(n *MNode, i int) sig.Link {
	if g := mt.sch.Lookup(n.Tag); g != nil && i < len(g.Kids) {
		return g.Kids[i].Link
	}
	return "?"
}

// litIndex returns the position of n's literal link l, or -1 when n's
// signature has no such link.
func (mt *MTree) litIndex(n *MNode, l sig.Link) int {
	if g := mt.sch.Lookup(n.Tag); g != nil {
		if i := g.LitIndex(l); i < len(n.Lits) {
			return i
		}
	}
	return -1
}

// holds checks what an Unload claims about n: each named kid link holds
// the named node, and each named literal link the named value.
func (mt *MTree) holds(n *MNode, kids []truechange.KidArg, lits []truechange.LitArg) error {
	for _, k := range kids {
		i := mt.kidIndex(n, k.Link)
		if i < 0 {
			return fmt.Errorf("node %s%s has no link %q", n.Tag, n.URI, k.Link)
		}
		if kid := n.Kids[i]; kid == nil || kid.URI != k.URI {
			return fmt.Errorf("node %s%s link %q does not hold %s", n.Tag, n.URI, k.Link, k.URI)
		}
	}
	return mt.holdsLits(n, lits)
}

// holdsLits checks that each named literal link of n holds the named value.
func (mt *MTree) holdsLits(n *MNode, lits []truechange.LitArg) error {
	for _, l := range lits {
		i := mt.litIndex(n, l.Link)
		if i < 0 {
			return fmt.Errorf("node %s%s has no literal %q", n.Tag, n.URI, l.Link)
		}
		if v := n.Lits[i]; !tree.LitEqual(v, l.Value) {
			return fmt.Errorf("node %s%s literal %q is %#v, edit claims %#v", n.Tag, n.URI, l.Link, v, l.Value)
		}
	}
	return nil
}

// applyEdit applies a single edit and returns the journal entry that
// undoes it. Every case validates before mutating, so a failed edit has no
// effect at all. The checks are at least as strict as complyEdit's
// (Definition 3.5), which keeps Comply and Patch in exact agreement: a
// script passes Comply iff it patches in full.
func (mt *MTree) applyEdit(e truechange.Edit) (undo, error) {
	switch ed := e.(type) {
	case truechange.Detach:
		par := mt.index[ed.Parent.URI]
		if par == nil {
			return undo{}, fmt.Errorf("detach: unknown parent %s", ed.Parent)
		}
		if par.Tag != ed.Parent.Tag {
			return undo{}, fmt.Errorf("detach: parent %s has tag %s, edit claims %s", ed.Parent.URI, par.Tag, ed.Parent.Tag)
		}
		i := mt.kidIndex(par, ed.Link)
		if i < 0 {
			return undo{}, fmt.Errorf("detach: parent %s has no link %q", ed.Parent, ed.Link)
		}
		prev := par.Kids[i]
		if prev == nil {
			return undo{}, fmt.Errorf("detach: slot %s.%s already empty", ed.Parent, ed.Link)
		}
		if prev.URI != ed.Node.URI || prev.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("detach: slot %s.%s holds %s%s, edit claims %s", ed.Parent, ed.Link, prev.Tag, prev.URI, ed.Node)
		}
		par.Kids[i] = nil
		return undo{kind: undoSlot, node: par, slot: i, prev: prev}, nil

	case truechange.Attach:
		par := mt.index[ed.Parent.URI]
		if par == nil {
			return undo{}, fmt.Errorf("attach: unknown parent %s", ed.Parent)
		}
		if par.Tag != ed.Parent.Tag {
			return undo{}, fmt.Errorf("attach: parent %s has tag %s, edit claims %s", ed.Parent.URI, par.Tag, ed.Parent.Tag)
		}
		i := mt.kidIndex(par, ed.Link)
		if i < 0 {
			return undo{}, fmt.Errorf("attach: parent %s has no link %q", ed.Parent, ed.Link)
		}
		if prev := par.Kids[i]; prev != nil {
			return undo{}, fmt.Errorf("attach: slot %s.%s already holds %s%s", ed.Parent, ed.Link, prev.Tag, prev.URI)
		}
		node := mt.index[ed.Node.URI]
		if node == nil {
			return undo{}, fmt.Errorf("attach: unknown node %s", ed.Node)
		}
		if node.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("attach: node %s has tag %s, edit claims %s", ed.Node.URI, node.Tag, ed.Node.Tag)
		}
		par.Kids[i] = node
		return undo{kind: undoSlot, node: par, slot: i}, nil

	case truechange.Load:
		if _, dup := mt.index[ed.Node.URI]; dup {
			return undo{}, fmt.Errorf("load: URI %s already loaded", ed.Node.URI)
		}
		// A loaded node fills its signature exactly, as a node of an
		// immutable tree does: every link once, none missing, none unknown.
		g := mt.sch.Lookup(ed.Node.Tag)
		if g == nil {
			return undo{}, fmt.Errorf("load: undeclared tag %s", ed.Node.Tag)
		}
		if len(ed.Kids) != len(g.Kids) || len(ed.Lits) != len(g.Lits) {
			return undo{}, fmt.Errorf("load: %s has %d kids and %d literals, signature of %s has %d and %d",
				ed.Node, len(ed.Kids), len(ed.Lits), ed.Node.Tag, len(g.Kids), len(g.Lits))
		}
		n := &MNode{
			Tag:  ed.Node.Tag,
			URI:  ed.Node.URI,
			Kids: make([]*MNode, len(g.Kids)),
			Lits: make([]any, len(g.Lits)),
		}
		for _, k := range ed.Kids {
			i := g.KidIndex(k.Link)
			if i < 0 {
				return undo{}, fmt.Errorf("load: tag %s has no link %q", ed.Node.Tag, k.Link)
			}
			if n.Kids[i] != nil {
				return undo{}, fmt.Errorf("load: link %q given twice", k.Link)
			}
			kid := mt.index[k.URI]
			if kid == nil {
				return undo{}, fmt.Errorf("load: unknown kid %s", k.URI)
			}
			n.Kids[i] = kid
		}
		for j, l := range ed.Lits {
			i := g.LitIndex(l.Link)
			if i < 0 {
				return undo{}, fmt.Errorf("load: tag %s has no literal %q", ed.Node.Tag, l.Link)
			}
			for _, prev := range ed.Lits[:j] {
				if prev.Link == l.Link {
					return undo{}, fmt.Errorf("load: literal %q given twice", l.Link)
				}
			}
			n.Lits[i] = l.Value
		}
		mt.index[ed.Node.URI] = n
		mt.made++
		return undo{kind: undoLoad, uri: ed.Node.URI}, nil

	case truechange.Unload:
		n, ok := mt.index[ed.Node.URI]
		if !ok {
			return undo{}, fmt.Errorf("unload: unknown node %s", ed.Node)
		}
		if ed.Node.URI == uri.Root {
			return undo{}, fmt.Errorf("unload: the pre-defined root cannot be unloaded")
		}
		if n.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("unload: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		if err := mt.holds(n, ed.Kids, ed.Lits); err != nil {
			return undo{}, fmt.Errorf("unload: %w", err)
		}
		delete(mt.index, ed.Node.URI)
		return undo{kind: undoUnload, uri: ed.Node.URI, node: n}, nil

	case truechange.Update:
		n := mt.index[ed.Node.URI]
		if n == nil {
			return undo{}, fmt.Errorf("update: unknown node %s", ed.Node)
		}
		if n.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("update: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		if err := mt.holdsLits(n, ed.Old); err != nil {
			return undo{}, fmt.Errorf("update: %w", err)
		}
		// Write into a copy: the old slice may be shared with the source
		// tree or with the receiver of a Comply, and rollback restores it.
		lits := append([]any(nil), n.Lits...)
		for _, l := range ed.New {
			i := mt.litIndex(n, l.Link)
			if i < 0 {
				return undo{}, fmt.Errorf("update: node %s has no literal %q", ed.Node, l.Link)
			}
			lits[i] = l.Value
		}
		u := undo{kind: undoLits, node: n, lits: n.Lits}
		n.Lits = lits
		return u, nil

	default:
		return undo{}, fmt.Errorf("unknown edit kind %T", e)
	}
}

// ToTree converts the attached tree back into an immutable tree,
// preserving URIs. It fails if the tree contains empty slots (is open).
//
// Every subtree the patches left as FromTree mirrored it comes back as the
// source's own node, by pointer, when that node carries the source's
// digest kind; its digests stay valid by the Merkle property. Only the
// changed spine is rebuilt, validated and hashed with that kind, through
// tree.NewWithURI. ToTree reserves in alloc the source's largest URI and
// every URI it rebuilds.
func (mt *MTree) ToTree(alloc *uri.Allocator) (*tree.Node, error) {
	top := mt.Top()
	if top == nil {
		return nil, fmt.Errorf("mtree: tree is empty")
	}
	alloc.Reserve(mt.maxURI)
	return mt.toTree(top, alloc, mt.made+1)
}

// toTree converts the subtree at n; depth is the number of nodes a path
// from n may still visit without a cycle, which an ill-typed script can
// attach.
func (mt *MTree) toTree(n *MNode, alloc *uri.Allocator, depth int) (*tree.Node, error) {
	if depth == 0 {
		return nil, fmt.Errorf("mtree: node %s is attached in a cycle", n.URI)
	}
	// n is its source node while its literals are the source's and every
	// kid converts to the source's kid; kids is allocated once it is not.
	src := n.src
	same := src != nil && tree.HashedWith(src, mt.kind) && sameLits(n.Lits, src.Lits)
	var kids []*tree.Node
	if !same {
		kids = make([]*tree.Node, len(n.Kids))
	}
	for i, k := range n.Kids {
		if k == nil {
			return nil, fmt.Errorf("mtree: node %s has an empty slot %q", n.URI, mt.kidLink(n, i))
		}
		t, err := mt.toTree(k, alloc, depth-1)
		if err != nil {
			return nil, err
		}
		if same && t != src.Kids[i] {
			same = false
			kids = make([]*tree.Node, len(n.Kids))
			copy(kids, src.Kids[:i])
		}
		if !same {
			kids[i] = t
		}
	}
	if same {
		return src, nil
	}
	return tree.NewWithURI(mt.sch, alloc, n.URI, n.Tag, kids, n.Lits, mt.kind)
}

// sameLits reports whether a and b are one literal slice.
func sameLits(a, b []any) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// EqualTree reports whether the attached tree equals the immutable tree t,
// comparing tags, literals, and shape but ignoring URIs (the ≃ relation of
// Conjecture 4.3).
func (mt *MTree) EqualTree(t *tree.Node) bool {
	return equalNode(mt.Top(), t)
}

func equalNode(m *MNode, t *tree.Node) bool {
	if m == nil || t == nil {
		return m == nil && t == nil
	}
	if m.Tag != t.Tag || len(m.Kids) != len(t.Kids) || len(m.Lits) != len(t.Lits) {
		return false
	}
	for i, v := range m.Lits {
		if !tree.LitEqual(v, t.Lits[i]) {
			return false
		}
	}
	for i, k := range m.Kids {
		if !equalNode(k, t.Kids[i]) {
			return false
		}
	}
	return true
}

// String renders the attached tree, with ∅ for empty slots.
func (mt *MTree) String() string {
	top := mt.Top()
	if top == nil {
		return "ε"
	}
	return mt.nodeString(top)
}

func (mt *MTree) nodeString(n *MNode) string {
	g := mt.sch.Lookup(n.Tag)
	s := string(n.Tag) + n.URI.String()
	if g == nil || len(g.Kids) != len(n.Kids) || len(g.Lits) != len(n.Lits) {
		return s + "<?>"
	}
	if len(g.Lits) > 0 {
		s += "{"
		for i, spec := range g.Lits {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s=%#v", spec.Link, n.Lits[i])
		}
		s += "}"
	}
	if len(g.Kids) > 0 {
		s += "("
		for i, k := range n.Kids {
			if i > 0 {
				s += ", "
			}
			if k == nil {
				s += "∅"
			} else {
				s += mt.nodeString(k)
			}
		}
		s += ")"
	}
	return s
}
