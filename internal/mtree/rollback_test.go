package mtree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/sig"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// dump renders the complete observable state of a mutable tree — every
// indexed node with its tag, literals, and slot contents, sorted by URI —
// so two trees are behaviourally identical iff their dumps are equal.
func dump(mt *MTree) string {
	uris := make([]uri.URI, 0, len(mt.index))
	for u := range mt.index {
		uris = append(uris, u)
	}
	sort.Slice(uris, func(i, j int) bool { return uris[i] < uris[j] })
	var b strings.Builder
	for _, u := range uris {
		n := mt.index[u]
		g := mt.sch.Lookup(n.Tag)
		fmt.Fprintf(&b, "%s %s", u, n.Tag)
		for i, k := range n.Kids {
			if k == nil {
				fmt.Fprintf(&b, " %s=∅", g.Kids[i].Link)
			} else {
				fmt.Fprintf(&b, " %s=%s", g.Kids[i].Link, k.URI)
			}
		}
		for i, v := range n.Lits {
			fmt.Fprintf(&b, " %s=%#v", g.Lits[i].Link, v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestPatchRollbackRandomScripts is the transactional-patching property
// test: for many seeds, generate a random tree and a random valid edit
// sequence, corrupt it with a failing edit at a random position, and check
// that the failed Patch (a) reports the corrupted index and op kind,
// (b) matches ErrNonCompliantScript, and (c) restores the tree to exactly
// its pre-patch state, compared against a deep copy taken before.
func TestPatchRollbackRandomScripts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := exp.NewGen(seed)
			tr := g.Tree(20)

			// Record a valid edit sequence by driving the random editor on a
			// scratch copy of the tree.
			rec, err := FromTree(g.Schema(), tr)
			if err != nil {
				t.Fatal(err)
			}
			e := &randEditor{
				t:     t,
				rng:   rand.New(rand.NewSource(seed ^ 0xfa117)),
				sch:   g.Schema(),
				mt:    rec,
				st:    truechange.ClosedState(),
				alloc: g.Alloc(),
			}
			var edits []truechange.Edit
			for tries := 0; len(edits) < 12 && tries < 200; tries++ {
				ed := e.randomEdit()
				if ed == nil {
					continue
				}
				if err := truechange.CheckEdit(e.sch, ed, e.st); err != nil {
					t.Fatalf("constructed edit rejected: %v\nedit: %s", err, ed)
				}
				if err := rec.ProcessEdit(ed); err != nil {
					t.Fatalf("recording edit %s: %v", ed, err)
				}
				edits = append(edits, ed)
			}

			// Corrupt the script at a random position with an edit that can
			// never apply: unloading a URI the tree has never seen.
			pos := int(seed) % (len(edits) + 1)
			bad := truechange.Unload{Node: truechange.NodeRef{Tag: exp.Num, URI: 1 << 40}}
			script := &truechange.Script{Edits: append(append(append([]truechange.Edit{}, edits[:pos]...), bad), edits[pos:]...)}

			mt, err := FromTree(g.Schema(), tr)
			if err != nil {
				t.Fatal(err)
			}
			before := dump(mt)
			beforeNodes := make(map[uri.URI]*MNode, len(mt.index))
			for u, n := range mt.index {
				beforeNodes[u] = n
			}

			err = mt.Patch(script)
			if err == nil {
				t.Fatal("corrupted script patched successfully")
			}
			var pe *PatchError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *PatchError: %v", err, err)
			}
			if pe.EditIndex != pos || pe.Op != "unload" {
				t.Errorf("PatchError = edit #%d (%s), want edit #%d (unload)", pe.EditIndex, pe.Op, pos)
			}
			if pe.RolledBack != (pos > 0) {
				t.Errorf("RolledBack = %v with %d applied edits", pe.RolledBack, pos)
			}
			if !errors.Is(err, derrors.ErrNonCompliantScript) {
				t.Errorf("error does not match ErrNonCompliantScript: %v", err)
			}
			if after := dump(mt); after != before {
				t.Errorf("tree not restored after rollback:\n--- before ---\n%s--- after ---\n%s", before, after)
			}
			// Rollback restores the very same nodes, not equal copies.
			for u, n := range beforeNodes {
				if mt.index[u] != n {
					t.Errorf("node %s replaced by a different object after rollback", u)
				}
			}
			// The tree must still be patchable: the uncorrupted script applies.
			if err := mt.Patch(&truechange.Script{Edits: edits}); err != nil {
				t.Fatalf("valid script failed after rollback: %v", err)
			}
		})
	}
}

// TestPatchRollbackOnOccupiedAttach pins the semantics' linearity guard:
// an Attach into an occupied slot is rejected (it would silently drop the
// occupant's subtree), the script fails at that edit, and the preceding
// Detach is rolled back so the detached node is back in its slot.
func TestPatchRollbackOnOccupiedAttach(t *testing.T) {
	b := exp.NewBuilder()
	tr := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	mt, err := FromTree(b.Schema(), tr)
	if err != nil {
		t.Fatal(err)
	}
	before := dump(mt)
	add := mt.Top()
	e1 := add.Kids[0]
	numURI := add.Kids[1].URI

	// Detach e1, then try to attach it over the still-occupied e2 slot.
	script := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: truechange.NodeRef{Tag: e1.Tag, URI: e1.URI}, Link: "e1", Parent: truechange.NodeRef{Tag: exp.Add, URI: add.URI}},
		truechange.Attach{Node: truechange.NodeRef{Tag: e1.Tag, URI: e1.URI}, Link: "e2", Parent: truechange.NodeRef{Tag: exp.Add, URI: add.URI}},
	}}
	err = mt.Patch(script)
	if err == nil {
		t.Fatal("attach into an occupied slot should have failed")
	}
	var pe *PatchError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not carry a *PatchError", err)
	}
	if pe.EditIndex != 1 || pe.Op != "attach" || !pe.RolledBack {
		t.Fatalf("PatchError = edit #%d (%s, rolledBack=%v), want edit #1 (attach, rolled back)",
			pe.EditIndex, pe.Op, pe.RolledBack)
	}
	if after := dump(mt); after != before {
		t.Fatalf("rollback did not restore the tree:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if got := mt.Top().Kids[0]; got == nil || got.URI != e1.URI {
		t.Fatalf("slot e1 holds %v after rollback, want the detached node %s", got, e1.URI)
	}
	if got := mt.Top().Kids[1]; got == nil || got.URI != numURI {
		t.Fatalf("slot e2 holds %v after rollback, want the original occupant %s", got, numURI)
	}
}

// TestPatchRollbackCounter checks the process-wide rollback counter moves
// only on actual rollbacks (at least one applied edit undone).
func TestPatchRollbackCounter(t *testing.T) {
	b := exp.NewBuilder()
	tr := b.MustN(exp.Num, int64(1))
	mt, err := FromTree(b.Schema(), tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := truechange.Unload{Node: truechange.NodeRef{Tag: exp.Num, URI: 1 << 40}}

	start := Rollbacks()
	// Fails at edit #0: nothing applied, nothing rolled back.
	if err := mt.Patch(&truechange.Script{Edits: []truechange.Edit{bad}}); err == nil {
		t.Fatal("expected failure")
	}
	if got := Rollbacks(); got != start {
		t.Errorf("Rollbacks moved to %d on a nothing-applied failure", got)
	}
	// Fails at edit #1 after one applied edit: one rollback.
	top := mt.Top()
	det := truechange.Detach{Node: truechange.NodeRef{Tag: top.Tag, URI: top.URI}, Link: sig.RootLink, Parent: truechange.RootRef}
	if err := mt.Patch(&truechange.Script{Edits: []truechange.Edit{det, bad}}); err == nil {
		t.Fatal("expected failure")
	}
	if got := Rollbacks(); got != start+1 {
		t.Errorf("Rollbacks = %d, want %d", got, start+1)
	}
	if mt.Top() == nil {
		t.Fatal("detach not rolled back")
	}
}

// TestPatchFaultInjection drives the rollback path through the
// deterministic fault injector: an error armed at the nth edit hit fails
// the patch there and the tree rolls back exactly.
func TestPatchFaultInjection(t *testing.T) {
	g := exp.NewGen(7)
	tr := g.Tree(15)
	mt, err := FromTree(g.Schema(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// A legitimate script: detach the top subtree's first kid, reattach it.
	top := mt.Top()
	var link sig.Link
	var kid *MNode
	for i, k := range top.Kids {
		if k != nil {
			link, kid = g.Schema().Lookup(top.Tag).Kids[i].Link, k
			break
		}
	}
	if kid == nil {
		t.Skip("generated tree has a leaf top")
	}
	script := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: truechange.NodeRef{Tag: kid.Tag, URI: kid.URI}, Link: link, Parent: truechange.NodeRef{Tag: top.Tag, URI: top.URI}},
		truechange.Attach{Node: truechange.NodeRef{Tag: kid.Tag, URI: kid.URI}, Link: link, Parent: truechange.NodeRef{Tag: top.Tag, URI: top.URI}},
	}}

	before := dump(mt)
	inj := faultinject.New(1, faultinject.Fault{Site: FaultSiteEdit, Kind: faultinject.Error, After: 1, Times: 1})
	mt.InjectFaults(inj)
	err = mt.Patch(script)
	if err == nil {
		t.Fatal("fault-injected patch succeeded")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v does not match ErrInjected", err)
	}
	var pe *PatchError
	if !errors.As(err, &pe) || pe.EditIndex != 1 {
		t.Fatalf("fault did not fire at edit #1: %v", err)
	}
	if after := dump(mt); after != before {
		t.Fatal("tree not restored after injected failure")
	}
	if inj.Fired(FaultSiteEdit) != 1 {
		t.Fatalf("Fired = %d, want 1", inj.Fired(FaultSiteEdit))
	}

	// Disarmed (Times exhausted): the same script now applies cleanly.
	if err := mt.Patch(script); err != nil {
		t.Fatalf("patch after fault exhausted: %v", err)
	}
}
