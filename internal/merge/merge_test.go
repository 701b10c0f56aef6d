package merge

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

func ref(n *tree.Node) truechange.NodeRef {
	return truechange.NodeRef{Tag: n.Tag, URI: n.URI}
}

func numLits(v int64) []truechange.LitArg {
	return []truechange.LitArg{{Link: "n", Value: v}}
}

func varLits(name string) []truechange.LitArg {
	return []truechange.LitArg{{Link: "name", Value: name}}
}

// replaceLeaf builds the canonical subtree-replacement script for a leaf
// kid: detach + unload the old leaf, load + attach a replacement with a
// fresh URI from alloc.
func replaceLeaf(parent, old *tree.Node, link sig.Link, newTag sig.Tag, newLits []truechange.LitArg, alloc *uri.Allocator) *truechange.Script {
	var oldLits []truechange.LitArg
	switch old.Tag {
	case exp.Num:
		oldLits = numLits(old.Lits[0].(int64))
	case exp.Var:
		oldLits = varLits(old.Lits[0].(string))
	}
	fresh := truechange.NodeRef{Tag: newTag, URI: alloc.Fresh()}
	return &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: ref(old), Link: link, Parent: ref(parent)},
		truechange.Unload{Node: ref(old), Lits: oldLits},
		truechange.Load{Node: fresh, Lits: newLits},
		truechange.Attach{Node: fresh, Link: link, Parent: ref(parent)},
	}}
}

// patchOnto applies a merged script to a fresh mutable copy of base and
// returns the mtree for structural comparison.
func patchOnto(t *testing.T, sch *sig.Schema, base *tree.Node, s *truechange.Script) *mtree.MTree {
	t.Helper()
	mt, err := mtree.FromTree(sch, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(s); err != nil {
		t.Fatalf("merged script does not apply: %v", err)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Fatalf("merged tree not closed: %v", err)
	}
	return mt
}

func kindSet(cs []Conflict) map[ConflictKind]int {
	out := make(map[ConflictKind]int)
	for _, c := range cs {
		out[c.Kind]++
	}
	return out
}

// TestConflictTaxonomy drives every conflict kind through Scripts with
// hand-written edit scripts over the exp language, asserting the precise
// ConflictError contents under PolicyFail and the patched-tree outcome
// under PolicyOurs and PolicyTheirs.
func TestConflictTaxonomy(t *testing.T) {
	type outcome struct {
		tree      func(b *tree.Builder) *tree.Node // expected tree, nil = must error too
		conflicts int                              // resolved conflicts recorded in the Result
	}
	cases := []struct {
		name string
		// build returns base tree, the two scripts, and the allocator the
		// base was built with (for fresh URIs).
		build func(b *tree.Builder) (*tree.Node, *truechange.Script, *truechange.Script)
		// expected conflict kinds (with multiplicity) under PolicyFail
		kinds map[ConflictKind]int
		// URI selector for the first conflict, applied to the base tree
		conflictURI func(base *tree.Node) uri.URI
		ours        outcome
		theirs      outcome
	}{
		{
			name: "update-update-same-node",
			build: func(b *tree.Builder) (*tree.Node, *truechange.Script, *truechange.Script) {
				base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
				n1 := base.Kids[0]
				sa := &truechange.Script{Edits: []truechange.Edit{
					truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(10)},
				}}
				sb := &truechange.Script{Edits: []truechange.Edit{
					truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(20)},
				}}
				return base, sa, sb
			},
			kinds:       map[ConflictKind]int{ConflictUpdateUpdate: 1},
			conflictURI: func(base *tree.Node) uri.URI { return base.Kids[0].URI },
			ours: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 10), b.MustN(exp.Num, 2))
			}, conflicts: 1},
			theirs: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 20), b.MustN(exp.Num, 2))
			}, conflicts: 1},
		},
		{
			name: "update-vs-unload",
			build: func(b *tree.Builder) (*tree.Node, *truechange.Script, *truechange.Script) {
				base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
				n1 := base.Kids[0]
				sa := &truechange.Script{Edits: []truechange.Edit{
					truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(10)},
				}}
				sb := replaceLeaf(base, n1, "e1", exp.Var, varLits("x"), b.Alloc())
				return base, sa, sb
			},
			kinds:       map[ConflictKind]int{ConflictUpdateDelete: 1},
			conflictURI: func(base *tree.Node) uri.URI { return base.Kids[0].URI },
			ours: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 10), b.MustN(exp.Num, 2))
			}, conflicts: 1},
			theirs: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Var, "x"), b.MustN(exp.Num, 2))
			}, conflicts: 1},
		},
		{
			name: "attach-into-unloaded-subtree",
			build: func(b *tree.Builder) (*tree.Node, *truechange.Script, *truechange.Script) {
				inner := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
				base := b.MustN(exp.Add, inner, b.MustN(exp.Num, 3))
				// ours replaces a leaf inside the inner subtree
				sa := replaceLeaf(inner, inner.Kids[0], "e1", exp.Num, numLits(9), b.Alloc())
				// theirs deletes the whole inner subtree
				fresh := truechange.NodeRef{Tag: exp.Num, URI: b.Alloc().Fresh()}
				sb := &truechange.Script{Edits: []truechange.Edit{
					truechange.Detach{Node: ref(inner), Link: "e1", Parent: ref(base)},
					truechange.Unload{Node: ref(inner), Kids: []truechange.KidArg{
						{Link: "e1", URI: inner.Kids[0].URI}, {Link: "e2", URI: inner.Kids[1].URI},
					}},
					truechange.Unload{Node: ref(inner.Kids[0]), Lits: numLits(1)},
					truechange.Unload{Node: ref(inner.Kids[1]), Lits: numLits(2)},
					truechange.Load{Node: fresh, Lits: numLits(7)},
					truechange.Attach{Node: fresh, Link: "e1", Parent: ref(base)},
				}}
				return base, sa, sb
			},
			kinds: map[ConflictKind]int{ConflictDeleteEdit: 1, ConflictDeleteDelete: 1},
			ours: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Add, b.MustN(exp.Num, 9), b.MustN(exp.Num, 2)), b.MustN(exp.Num, 3))
			}, conflicts: 2},
			theirs: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 7), b.MustN(exp.Num, 3))
			}, conflicts: 2},
		},
		{
			name: "both-attach-same-slot",
			build: func(b *tree.Builder) (*tree.Node, *truechange.Script, *truechange.Script) {
				base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
				n2 := base.Kids[1]
				sa := replaceLeaf(base, n2, "e2", exp.Var, varLits("a"), b.Alloc())
				sb := replaceLeaf(base, n2, "e2", exp.Var, varLits("b"), b.Alloc())
				return base, sa, sb
			},
			kinds:       map[ConflictKind]int{ConflictSlot: 1, ConflictDeleteDelete: 1},
			conflictURI: func(base *tree.Node) uri.URI { return base.URI },
			ours: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Var, "a"))
			}, conflicts: 2},
			theirs: outcome{tree: func(b *tree.Builder) *tree.Node {
				return b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Var, "b"))
			}, conflicts: 2},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := exp.NewBuilder()
			base, sa, sb := tc.build(b)

			// PolicyFail: the conflict must be reported, typed, and complete.
			_, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
			if err == nil {
				t.Fatal("PolicyFail: conflicting merge succeeded")
			}
			if !errors.Is(err, derrors.ErrMergeConflict) {
				t.Fatalf("PolicyFail error %v is not ErrMergeConflict", err)
			}
			var ce *ConflictError
			if !errors.As(err, &ce) {
				t.Fatalf("PolicyFail error %T does not carry *ConflictError", err)
			}
			if got := kindSet(ce.Conflicts); len(got) != len(tc.kinds) || func() bool {
				for k, n := range tc.kinds {
					if got[k] != n {
						return true
					}
				}
				return false
			}() {
				t.Fatalf("conflict kinds = %v, want %v (conflicts: %v)", kindSet(ce.Conflicts), tc.kinds, ce.Conflicts)
			}
			for _, c := range ce.Conflicts {
				if len(c.Ours) == 0 || len(c.Theirs) == 0 {
					t.Fatalf("conflict %v is missing a competing edit group", c)
				}
				if c.Resolution != PolicyFail {
					t.Fatalf("conflict %v resolution = %v, want fail", c, c.Resolution)
				}
				if (c.Kind == ConflictSlot || c.Kind == ConflictDeleteEdit) && c.Slot == nil {
					t.Fatalf("conflict %v has no contended slot", c)
				}
			}
			if tc.conflictURI != nil {
				want := tc.conflictURI(base)
				found := false
				for _, c := range ce.Conflicts {
					if c.URI == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("no conflict names URI %s: %v", want, ce.Conflicts)
				}
			}

			// PolicyOurs / PolicyTheirs: merge succeeds and patches to the
			// expected tree; resolved conflicts are recorded, not dropped.
			for _, pc := range []struct {
				policy Policy
				want   outcome
			}{{PolicyOurs, tc.ours}, {PolicyTheirs, tc.theirs}} {
				res, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: pc.policy})
				if err != nil {
					t.Fatalf("%v: %v", pc.policy, err)
				}
				if len(res.Conflicts) != pc.want.conflicts {
					t.Fatalf("%v: %d resolved conflicts recorded, want %d: %v",
						pc.policy, len(res.Conflicts), pc.want.conflicts, res.Conflicts)
				}
				for _, c := range res.Conflicts {
					if c.Resolution != pc.policy {
						t.Fatalf("%v: conflict %v records resolution %v", pc.policy, c, c.Resolution)
					}
				}
				mt := patchOnto(t, b.Schema(), base, res.Script)
				wb := exp.NewBuilder()
				want := pc.want.tree(wb)
				if !mt.EqualTree(want) {
					t.Fatalf("%v: merged tree mismatch:\n got: %s\nwant: %s", pc.policy, mt, want)
				}
			}
		})
	}
}

// TestMergeConvergent checks that both sides making the same change — a
// replacement with identical content but different fresh URIs — merges
// cleanly under PolicyFail with the pair auto-resolved to one copy.
func TestMergeConvergent(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	n2 := base.Kids[1]
	sa := replaceLeaf(base, n2, "e2", exp.Var, varLits("same"), b.Alloc())
	sb := replaceLeaf(base, n2, "e2", exp.Var, varLits("same"), b.Alloc())

	res, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
	if err != nil {
		t.Fatalf("convergent merge failed: %v", err)
	}
	if res.Stats.AutoResolved != 1 || res.Stats.Conflicts != 0 {
		t.Fatalf("stats = %+v, want 1 auto-resolved, 0 conflicts", res.Stats)
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("convergent pair reported as conflicts: %v", res.Conflicts)
	}
	mt := patchOnto(t, b.Schema(), base, res.Script)
	wb := exp.NewBuilder()
	want := wb.MustN(exp.Add, wb.MustN(exp.Num, 1), wb.MustN(exp.Var, "same"))
	if !mt.EqualTree(want) {
		t.Fatalf("merged tree mismatch:\n got: %s\nwant: %s", mt, want)
	}
}

// TestMergeDisjoint checks the clean path: edits to different slots merge
// with no conflicts and the merged tree carries both changes; merging in
// either argument order patches to the same tree (commutativity).
func TestMergeDisjoint(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	sa := replaceLeaf(base, base.Kids[0], "e1", exp.Var, varLits("a"), b.Alloc())
	sb := replaceLeaf(base, base.Kids[1], "e2", exp.Var, varLits("b"), b.Alloc())

	wb := exp.NewBuilder()
	want := wb.MustN(exp.Add, wb.MustN(exp.Var, "a"), wb.MustN(exp.Var, "b"))

	for _, order := range []struct {
		name   string
		sa, sb *truechange.Script
	}{{"A,B", sa, sb}, {"B,A", sb, sa}} {
		res, err := Scripts(b.Schema(), base, order.sa, order.sb, Options{Policy: PolicyFail})
		if err != nil {
			t.Fatalf("order %s: %v", order.name, err)
		}
		if res.Stats.Conflicts != 0 || res.Stats.AutoResolved != 0 || res.Stats.DroppedEdits != 0 {
			t.Fatalf("order %s: stats = %+v, want all-clean", order.name, res.Stats)
		}
		if got := res.Script.EditCount(); got != sa.EditCount()+sb.EditCount() {
			t.Fatalf("order %s: merged script has %d edits, want %d", order.name, got, sa.EditCount()+sb.EditCount())
		}
		mt := patchOnto(t, b.Schema(), base, res.Script)
		if !mt.EqualTree(want) {
			t.Fatalf("order %s: merged tree mismatch:\n got: %s\nwant: %s", order.name, mt, want)
		}
	}
}

// TestMergeCrossMoveCycle checks the one unsoundness the linear type
// system cannot see: each side moves a subtree below the other's. Both
// scripts are independently valid, the union typechecks, but patching
// orphans both subtrees; the post-patch closure check must turn this into
// a ConflictCycle, not a silent success.
func TestMergeCrossMoveCycle(t *testing.T) {
	b := exp.NewBuilder()
	x := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	y := b.MustN(exp.Add, b.MustN(exp.Num, 3), b.MustN(exp.Num, 4))
	base := b.MustN(exp.Add, x, y)

	// ours: move y under x.e2 (deleting Num 2), refill root.e2 with Num 5
	freshA := truechange.NodeRef{Tag: exp.Num, URI: b.Alloc().Fresh()}
	sa := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: ref(y), Link: "e2", Parent: ref(base)},
		truechange.Detach{Node: ref(x.Kids[1]), Link: "e2", Parent: ref(x)},
		truechange.Unload{Node: ref(x.Kids[1]), Lits: numLits(2)},
		truechange.Attach{Node: ref(y), Link: "e2", Parent: ref(x)},
		truechange.Load{Node: freshA, Lits: numLits(5)},
		truechange.Attach{Node: freshA, Link: "e2", Parent: ref(base)},
	}}
	// theirs: move x under y.e1 (deleting Num 3), refill root.e1 with Num 6
	freshB := truechange.NodeRef{Tag: exp.Num, URI: b.Alloc().Fresh()}
	sb := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: ref(x), Link: "e1", Parent: ref(base)},
		truechange.Detach{Node: ref(y.Kids[0]), Link: "e1", Parent: ref(y)},
		truechange.Unload{Node: ref(y.Kids[0]), Lits: numLits(3)},
		truechange.Attach{Node: ref(x), Link: "e1", Parent: ref(y)},
		truechange.Load{Node: freshB, Lits: numLits(6)},
		truechange.Attach{Node: freshB, Link: "e1", Parent: ref(base)},
	}}

	_, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
	if err == nil {
		t.Fatal("cross-move cycle merged silently")
	}
	if !errors.Is(err, derrors.ErrMergeConflict) {
		t.Fatalf("error %v is not ErrMergeConflict", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) || len(ce.Conflicts) == 0 {
		t.Fatalf("error %v carries no conflicts", err)
	}
	if ce.Conflicts[0].Kind != ConflictCycle {
		t.Fatalf("conflict kind = %v, want move-cycle", ce.Conflicts[0].Kind)
	}

	// PolicyOurs keeps ours' move: y sits under x, root.e2 refilled.
	res, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyOurs})
	if err != nil {
		t.Fatalf("PolicyOurs: %v", err)
	}
	mt := patchOnto(t, b.Schema(), base, res.Script)
	wb := exp.NewBuilder()
	want := wb.MustN(exp.Add,
		wb.MustN(exp.Add, wb.MustN(exp.Num, 1), wb.MustN(exp.Add, wb.MustN(exp.Num, 3), wb.MustN(exp.Num, 4))),
		wb.MustN(exp.Num, 5))
	if !mt.EqualTree(want) {
		t.Fatalf("PolicyOurs merged tree mismatch:\n got: %s\nwant: %s", mt, want)
	}
}

// TestMergeFreshURICollision checks the script-level entry point renames
// colliding fresh load URIs apart: two independently produced scripts that
// load different content under the same fresh URI must still merge into a
// tree carrying both insertions.
func TestMergeFreshURICollision(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	collide := b.Alloc().Peek() + 1 // both sides will use this URI fresh
	allocA := uri.NewAllocator()
	allocA.Reserve(collide - 1)
	allocB := uri.NewAllocator()
	allocB.Reserve(collide - 1)
	sa := replaceLeaf(base, base.Kids[0], "e1", exp.Var, varLits("a"), allocA)
	sb := replaceLeaf(base, base.Kids[1], "e2", exp.Var, varLits("b"), allocB)

	res, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
	if err != nil {
		t.Fatalf("colliding-URI merge failed: %v", err)
	}
	if res.Stats.Conflicts != 0 {
		t.Fatalf("disjoint edits reported as conflicts: %+v", res.Stats)
	}
	mt := patchOnto(t, b.Schema(), base, res.Script)
	wb := exp.NewBuilder()
	want := wb.MustN(exp.Add, wb.MustN(exp.Var, "a"), wb.MustN(exp.Var, "b"))
	if !mt.EqualTree(want) {
		t.Fatalf("merged tree mismatch:\n got: %s\nwant: %s", mt, want)
	}
}

// TestMergeInputValidation checks ill-typed and non-compliant inputs are
// rejected up front with the established sentinels.
func TestMergeInputValidation(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	ok := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: ref(base.Kids[0]), Old: numLits(1), New: numLits(10)},
	}}

	if _, err := Scripts(b.Schema(), nil, ok, ok, Options{}); !errors.Is(err, derrors.ErrNilTree) {
		t.Fatalf("nil base: %v, want ErrNilTree", err)
	}
	if _, err := Scripts(b.Schema(), base, nil, ok, Options{}); err == nil {
		t.Fatal("nil script accepted")
	}

	// Ill-typed: a dangling Detach leaks a root.
	illTyped := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: ref(base.Kids[0]), Link: "e1", Parent: ref(base)},
	}}
	if _, err := Scripts(b.Schema(), base, illTyped, ok, Options{}); !errors.Is(err, derrors.ErrIllTyped) {
		t.Fatalf("ill-typed ours: %v, want ErrIllTyped", err)
	}

	// Well-typed but non-compliant: updates a URI the base doesn't have.
	ghost := truechange.NodeRef{Tag: exp.Num, URI: b.Alloc().Fresh()}
	nonCompliant := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: ghost, Old: numLits(1), New: numLits(2)},
	}}
	if _, err := Scripts(b.Schema(), base, ok, nonCompliant, Options{}); !errors.Is(err, derrors.ErrNonCompliantScript) {
		t.Fatalf("non-compliant theirs: %v, want ErrNonCompliantScript", err)
	}
}

// TestTrees drives the tree-level entry point end to end through truediff:
// a disjoint pair merges clean, a competing pair conflicts under
// PolicyFail and resolves under ours/theirs.
func TestTrees(t *testing.T) {
	sch := exp.Schema()
	ctx := context.Background()

	t.Run("disjoint", func(t *testing.T) {
		b := exp.NewBuilder()
		base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
		ob := exp.NewBuilder()
		ours := ob.MustN(exp.Add, ob.MustN(exp.Num, 10), ob.MustN(exp.Num, 2))
		tb := exp.NewBuilder()
		theirs := tb.MustN(exp.Add, tb.MustN(exp.Num, 1), tb.MustN(exp.Num, 20))

		res, err := Trees(ctx, sch, base, ours, theirs, nil, Options{Policy: PolicyFail})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Conflicts != 0 {
			t.Fatalf("disjoint tree merge reported conflicts: %+v", res.Stats)
		}
		mt := patchOnto(t, sch, base, res.Script)
		wb := exp.NewBuilder()
		want := wb.MustN(exp.Add, wb.MustN(exp.Num, 10), wb.MustN(exp.Num, 20))
		if !mt.EqualTree(want) {
			t.Fatalf("merged tree mismatch:\n got: %s\nwant: %s", mt, want)
		}
	})

	t.Run("competing", func(t *testing.T) {
		b := exp.NewBuilder()
		base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
		ob := exp.NewBuilder()
		ours := ob.MustN(exp.Add, ob.MustN(exp.Var, "a"), ob.MustN(exp.Num, 2))
		tb := exp.NewBuilder()
		theirs := tb.MustN(exp.Add, tb.MustN(exp.Var, "b"), tb.MustN(exp.Num, 2))

		_, err := Trees(ctx, sch, base, ours, theirs, nil, Options{Policy: PolicyFail})
		if !errors.Is(err, derrors.ErrMergeConflict) {
			t.Fatalf("competing tree merge: %v, want ErrMergeConflict", err)
		}

		res, err := Trees(ctx, sch, base, ours, theirs, nil, Options{Policy: PolicyTheirs})
		if err != nil {
			t.Fatalf("PolicyTheirs: %v", err)
		}
		mt := patchOnto(t, sch, base, res.Script)
		if !mt.EqualTree(theirs) {
			t.Fatalf("PolicyTheirs merged tree mismatch:\n got: %s\nwant: %s", mt, theirs)
		}
	})

	t.Run("convergent", func(t *testing.T) {
		b := exp.NewBuilder()
		base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
		ob := exp.NewBuilder()
		ours := ob.MustN(exp.Add, ob.MustN(exp.Var, "same"), ob.MustN(exp.Num, 2))
		tb := exp.NewBuilder()
		theirs := tb.MustN(exp.Add, tb.MustN(exp.Var, "same"), tb.MustN(exp.Num, 2))

		res, err := Trees(ctx, sch, base, ours, theirs, nil, Options{Policy: PolicyFail})
		if err != nil {
			t.Fatalf("convergent tree merge: %v", err)
		}
		if res.Stats.AutoResolved == 0 {
			t.Fatalf("convergent change not auto-resolved: %+v", res.Stats)
		}
		mt := patchOnto(t, sch, base, res.Script)
		if !mt.EqualTree(ours) {
			t.Fatalf("merged tree mismatch:\n got: %s\nwant: %s", mt, ours)
		}
	})
}

// TestApplyRollback checks Apply's accept hook: a rejected merge is rolled
// back exactly via the inverse script.
func TestApplyRollback(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	sa := replaceLeaf(base, base.Kids[0], "e1", exp.Var, varLits("a"), b.Alloc())
	sb := replaceLeaf(base, base.Kids[1], "e2", exp.Var, varLits("b"), b.Alloc())
	res, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
	if err != nil {
		t.Fatal(err)
	}

	mt, err := mtree.FromTree(b.Schema(), base)
	if err != nil {
		t.Fatal(err)
	}
	before := mt.String()

	reject := errors.New("not today")
	err = Apply(mt, res, func(*mtree.MTree) error { return reject })
	if !errors.Is(err, reject) {
		t.Fatalf("Apply did not surface the rejection: %v", err)
	}
	if after := mt.String(); after != before {
		t.Fatalf("rejection did not roll back exactly:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// Accepted applies commit.
	if err := Apply(mt, res, nil); err != nil {
		t.Fatal(err)
	}
	wb := exp.NewBuilder()
	want := wb.MustN(exp.Add, wb.MustN(exp.Var, "a"), wb.MustN(exp.Var, "b"))
	if !mt.EqualTree(want) {
		t.Fatalf("accepted apply mismatch:\n got: %s\nwant: %s", mt, want)
	}
}

// TestMergeConflictAndAutoResolveCounts checks the per-call counts: a
// conflicting pair fails with exactly one conflict in its *ConflictError,
// and a convergent pair merges with Stats.AutoResolved == 1.
func TestMergeConflictAndAutoResolveCounts(t *testing.T) {
	b := exp.NewBuilder()
	base := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	n1 := base.Kids[0]
	sa := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(10)},
	}}
	sb := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(20)},
	}}

	_, err := Scripts(b.Schema(), base, sa, sb, Options{Policy: PolicyFail})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflicting pair: got %v, want a *ConflictError", err)
	}
	if len(ce.Conflicts) != 1 {
		t.Fatalf("conflicting pair: %d conflicts, want 1: %v", len(ce.Conflicts), ce.Conflicts)
	}
	sbSame := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: ref(n1), Old: numLits(1), New: numLits(10)},
	}}
	res, err := Scripts(b.Schema(), base, sa, sbSame, Options{Policy: PolicyFail})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AutoResolved != 1 || res.Stats.Conflicts != 0 {
		t.Fatalf("convergent pair: %d auto-resolved, %d conflicts, want 1 and 0", res.Stats.AutoResolved, res.Stats.Conflicts)
	}
}

// TestPolicyRoundTrip pins Policy parsing and formatting for the CLI.
func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyFail, PolicyOurs, PolicyTheirs} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus input")
	}
	for k := ConflictSlot; k <= ConflictCycle; k++ {
		if s := k.String(); s == "" || s == fmt.Sprintf("kind(%d)", int(k)) {
			t.Fatalf("ConflictKind %d has no name", int(k))
		}
	}
}
