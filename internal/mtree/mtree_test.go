package mtree

import (
	"strings"
	"testing"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

func expSchema() *sig.Schema {
	s := sig.NewSchema("mtree-test")
	s.MustDeclare(sig.Sig{Tag: "Num", Lits: []sig.LitSpec{{Link: "n", Type: sig.IntLit}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "Var", Lits: []sig.LitSpec{{Link: "name", Type: sig.StringLit}}, Result: "Exp"})
	for _, t := range []sig.Tag{"Add", "Sub", "Mul"} {
		s.MustDeclare(sig.Sig{Tag: t, Kids: []sig.KidSpec{{Link: "e1", Sort: "Exp"}, {Link: "e2", Sort: "Exp"}}, Result: "Exp"})
	}
	return s
}

func nref(tag sig.Tag, u uri.URI) truechange.NodeRef {
	return truechange.NodeRef{Tag: tag, URI: u}
}

// TestStandardSemanticsWalkthrough replays the three edit scripts of paper
// §3.1 against the standard semantics of §3.2, starting from the empty
// tree ε and checking every intermediate tree.
func TestStandardSemanticsWalkthrough(t *testing.T) {
	sch := expSchema()
	mt := New(sch)
	if mt.Top() != nil {
		t.Fatal("fresh tree should be empty")
	}
	if mt.String() != "ε" {
		t.Errorf("empty tree renders as %q", mt.String())
	}

	d1 := &truechange.Script{Edits: []truechange.Edit{
		truechange.Load{Node: nref("Var", 1), Lits: []truechange.LitArg{{Link: "name", Value: "a"}}},
		truechange.Load{Node: nref("Var", 2), Lits: []truechange.LitArg{{Link: "name", Value: "b"}}},
		truechange.Load{Node: nref("Add", 3), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 2}}},
		truechange.Attach{Node: nref("Add", 3), Link: sig.RootLink, Parent: truechange.RootRef},
	}}
	if err := truechange.WellTypedInit(sch, d1); err != nil {
		t.Fatalf("∆1: %v", err)
	}
	if err := mt.Patch(d1); err != nil {
		t.Fatalf("patch ∆1: %v", err)
	}
	// Add3(Var1("a"), Var2("b"))
	if got := mt.String(); got != `Add#3(Var#1{name="a"}, Var#2{name="b"})` {
		t.Errorf("after ∆1: %s", got)
	}
	if mt.Size() != 3 {
		t.Errorf("index size = %d, want 3", mt.Size())
	}

	d2 := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: nref("Var", 2),
			Old: []truechange.LitArg{{Link: "name", Value: "b"}},
			New: []truechange.LitArg{{Link: "name", Value: "c"}}},
	}}
	if err := truechange.WellTyped(sch, d2); err != nil {
		t.Fatalf("∆2: %v", err)
	}
	if err := mt.Patch(d2); err != nil {
		t.Fatalf("patch ∆2: %v", err)
	}
	if got := mt.String(); got != `Add#3(Var#1{name="a"}, Var#2{name="c"})` {
		t.Errorf("after ∆2: %s", got)
	}

	d3 := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: nref("Add", 3), Link: sig.RootLink, Parent: truechange.RootRef},
		truechange.Unload{Node: nref("Add", 3), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 2}}},
		truechange.Load{Node: nref("Mul", 4), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 2}}},
		truechange.Attach{Node: nref("Mul", 4), Link: sig.RootLink, Parent: truechange.RootRef},
	}}
	if err := truechange.WellTyped(sch, d3); err != nil {
		t.Fatalf("∆3: %v", err)
	}
	if err := mt.Comply(d3); err != nil {
		t.Fatalf("∆3 compliance: %v", err)
	}
	if err := mt.Patch(d3); err != nil {
		t.Fatalf("patch ∆3: %v", err)
	}
	if got := mt.String(); got != `Mul#4(Var#1{name="a"}, Var#2{name="c"})` {
		t.Errorf("after ∆3: %s", got)
	}
	if mt.Lookup(3) != nil {
		t.Error("URI 3 should be unloaded from the index")
	}
	if mt.Lookup(4) == nil || mt.Lookup(1) == nil {
		t.Error("URIs 4 and 1 should be indexed")
	}
	if err := mt.CheckClosed(); err != nil {
		t.Errorf("final tree should be closed and well-typed: %v", err)
	}
}

func buildTree(t *testing.T, sch *sig.Schema) (*tree.Node, *uri.Allocator) {
	t.Helper()
	alloc := uri.NewAllocator()
	b := tree.NewBuilder(sch, alloc)
	tr := b.MustN("Add", b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Var", "b")), b.MustN("Num", 7))
	return tr, alloc
}

func TestFromTreeAndBack(t *testing.T) {
	sch := expSchema()
	tr, alloc := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Size() != tr.Size() {
		t.Errorf("index size = %d, want %d", mt.Size(), tr.Size())
	}
	if !mt.EqualTree(tr) {
		t.Error("mutable tree should equal its source")
	}
	back, err := mt.ToTree(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(back, tr) {
		t.Errorf("round trip changed the tree:\n%s\n%s", back, tr)
	}
	if back.URI != tr.URI {
		t.Error("round trip should preserve URIs")
	}
	if err := mt.CheckClosed(); err != nil {
		t.Errorf("converted tree should be closed: %v", err)
	}
}

func TestFromTreeNil(t *testing.T) {
	sch := expSchema()
	mt, err := FromTree(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Top() != nil {
		t.Error("nil source should yield an empty tree")
	}
	if _, err := mt.ToTree(uri.NewAllocator()); err == nil {
		t.Error("ToTree on an empty tree should fail")
	}
}

func TestPatchFailures(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mk := func() *MTree {
		mt, err := FromTree(sch, tr)
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}
	cases := []struct {
		name string
		edit truechange.Edit
	}{
		{"detach unknown parent", truechange.Detach{Node: nref("Var", 3), Link: "e1", Parent: nref("Sub", 99)}},
		{"detach unknown link", truechange.Detach{Node: nref("Var", 3), Link: "zz", Parent: nref("Sub", 2)}},
		{"attach unknown parent", truechange.Attach{Node: nref("Var", 3), Link: "e1", Parent: nref("Sub", 99)}},
		{"attach unknown node", truechange.Attach{Node: nref("Var", 99), Link: "e1", Parent: nref("Sub", 2)}},
		{"attach unknown link", truechange.Attach{Node: nref("Var", 3), Link: "zz", Parent: nref("Sub", 2)}},
		{"load duplicate uri", truechange.Load{Node: nref("Num", 1)}},
		{"load unknown kid", truechange.Load{Node: nref("Add", 50), Kids: []truechange.KidArg{{Link: "e1", URI: 98}, {Link: "e2", URI: 99}}}},
		{"load missing link", truechange.Load{Node: nref("Add", 50), Kids: []truechange.KidArg{{Link: "e1", URI: 1}}}},
		{"load repeated link", truechange.Load{Node: nref("Add", 50), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "e1", URI: 2}}}},
		{"load unknown link", truechange.Load{Node: nref("Add", 50), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "zz", URI: 2}}}},
		{"unload unknown", truechange.Unload{Node: nref("Num", 99)}},
		{"update unknown node", truechange.Update{Node: nref("Var", 99), New: []truechange.LitArg{{Link: "name", Value: "x"}}}},
		{"update unknown literal", truechange.Update{Node: nref("Var", 3), New: []truechange.LitArg{{Link: "zz", Value: "x"}}}},
	}
	for _, c := range cases {
		mt := mk()
		err := mt.Patch(&truechange.Script{Edits: []truechange.Edit{c.edit}})
		if err == nil {
			t.Errorf("%s: patch should fail", c.name)
		}
	}
}

func TestCheckNodeDefinition33(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	top := mt.Top()

	// Closed tree: well-typed relative to empty slots.
	if srt, err := mt.CheckNode(top, nil); err != nil || srt != "Exp" {
		t.Errorf("CheckNode = %s, %v", srt, err)
	}

	// Empty an inner slot: ill-typed without S, well-typed with the slot
	// recorded (condition 3a of Definition 3.3).
	sub := top.Kids[0]
	sub.Kids[1] = nil
	if _, err := mt.CheckNode(top, nil); err == nil {
		t.Error("tree with unrecorded empty slot should be ill-typed")
	}
	slots := map[truechange.Slot]sig.Sort{{URI: sub.URI, Link: "e2"}: "Exp"}
	if _, err := mt.CheckNode(top, slots); err != nil {
		t.Errorf("tree with recorded slot should be well-typed: %v", err)
	}
	// A slot of incompatible sort does not satisfy the kid expectation.
	badSlots := map[truechange.Slot]sig.Sort{{URI: sub.URI, Link: "e2"}: "Stmt"}
	if _, err := mt.CheckNode(top, badSlots); err == nil {
		t.Error("slot with incompatible sort should be rejected")
	}

	// Bad literal value.
	sub.Kids[1] = &MNode{Tag: "Num", URI: 77, Lits: []any{"oops"}}
	if _, err := mt.CheckNode(top, nil); err == nil {
		t.Error("ill-typed literal should be rejected")
	}
}

func TestCheckTreeDefinition34(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.CheckTree(truechange.ClosedState()); err != nil {
		t.Fatalf("closed tree: %v", err)
	}

	// A state naming an unindexed root is rejected.
	st := truechange.ClosedState()
	st.Roots[99] = "Exp"
	if err := mt.CheckTree(st); err == nil {
		t.Error("unindexed root should be rejected")
	}

	// A state naming a slot of an unindexed node is rejected.
	st = truechange.ClosedState()
	st.Slots[truechange.Slot{URI: 99, Link: "e1"}] = "Exp"
	if err := mt.CheckTree(st); err == nil {
		t.Error("slot of unindexed node should be rejected")
	}

	// Detach a subtree: the open tree is well-typed relative to the
	// matching state, and ill-typed relative to the closed state.
	top := mt.Top()
	detached := top.Kids[0]
	top.Kids[0] = nil
	open := truechange.ClosedState()
	open.Roots[detached.URI] = "Exp"
	open.Slots[truechange.Slot{URI: top.URI, Link: "e1"}] = "Exp"
	if err := mt.CheckTree(open); err != nil {
		t.Errorf("open tree with matching state: %v", err)
	}
	if err := mt.CheckTree(truechange.ClosedState()); err == nil {
		t.Error("open tree must not type-check against the closed state")
	}
	if err := mt.CheckClosed(); err == nil {
		t.Error("CheckClosed must fail on an open tree")
	}
}

func TestCheckClosedDetectsStrayIndexEntries(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	mt.index[999] = &MNode{Tag: "Num", URI: 999, Lits: []any{int64(1)}}
	err = mt.CheckClosed()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("stray index entry should be reported, got %v", err)
	}
}

func TestComplianceDefinition35(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	// tr = Add#5(Sub#3(Var#1(a), Var#2(b)), Num#4(7))
	mk := func() *MTree {
		mt, err := FromTree(sch, tr)
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}

	good := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: nref("Sub", 3), Link: "e1", Parent: nref("Add", 5)},
		truechange.Unload{Node: nref("Sub", 3), Kids: []truechange.KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 2}}},
		truechange.Detach{Node: nref("Var", 2), Link: "e2", Parent: nref("Sub", 3)},
	}}
	// The third edit refers to the already-unloaded Sub#3: compliance is
	// checked against the evolving tree, so this must fail…
	if err := mk().Comply(good); err == nil {
		t.Error("reference to an unloaded node should not comply")
	}
	// …whereas the two-edit prefix complies.
	if err := mk().Comply(&truechange.Script{Edits: good.Edits[:2]}); err != nil {
		t.Errorf("prefix should comply: %v", err)
	}

	bad := []truechange.Edit{
		// Wrong tag for the detached node.
		truechange.Detach{Node: nref("Mul", 3), Link: "e1", Parent: nref("Add", 5)},
		// Wrong parent tag.
		truechange.Detach{Node: nref("Sub", 3), Link: "e1", Parent: nref("Mul", 5)},
		// Slot holds a different node.
		truechange.Detach{Node: nref("Num", 4), Link: "e1", Parent: nref("Add", 5)},
		// Load with a stale URI.
		truechange.Load{Node: nref("Num", 4), Lits: []truechange.LitArg{{Link: "n", Value: int64(1)}}},
		// Unload with wrong literal value.
		truechange.Unload{Node: nref("Num", 4), Lits: []truechange.LitArg{{Link: "n", Value: int64(8)}}},
		// Update with wrong old value.
		truechange.Update{Node: nref("Var", 1),
			Old: []truechange.LitArg{{Link: "name", Value: "zzz"}},
			New: []truechange.LitArg{{Link: "name", Value: "q"}}},
	}
	for _, e := range bad {
		if err := mk().Comply(&truechange.Script{Edits: []truechange.Edit{e}}); err == nil {
			t.Errorf("edit %s should not comply", e)
		}
	}

	// Compliance must not mutate the receiver.
	mt := mk()
	_ = mt.Comply(good)
	if !mt.EqualTree(tr) {
		t.Error("Comply mutated the tree")
	}

	// Duplicate loads of one URI within a script are rejected.
	dup := &truechange.Script{Edits: []truechange.Edit{
		truechange.Load{Node: nref("Var", 50), Lits: []truechange.LitArg{{Link: "name", Value: "x"}}},
		truechange.Load{Node: nref("Var", 50), Lits: []truechange.LitArg{{Link: "name", Value: "y"}}},
	}}
	if err := mk().Comply(dup); err == nil {
		t.Error("duplicate load URIs should not comply")
	}
}

// TestTypeSafetyTheorem36 validates Theorem 3.6 on a concrete case: a
// well-typed, compliant script patches a closed well-typed tree into a
// closed well-typed tree.
func TestTypeSafetyTheorem36(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Fatalf("precondition: %v", err)
	}

	// Swap the two operands of Sub#3 (Var#1 and Var#2).
	swap := &truechange.Script{Edits: []truechange.Edit{
		truechange.Detach{Node: nref("Var", 1), Link: "e1", Parent: nref("Sub", 3)},
		truechange.Detach{Node: nref("Var", 2), Link: "e2", Parent: nref("Sub", 3)},
		truechange.Attach{Node: nref("Var", 2), Link: "e1", Parent: nref("Sub", 3)},
		truechange.Attach{Node: nref("Var", 1), Link: "e2", Parent: nref("Sub", 3)},
	}}
	if err := truechange.WellTyped(sch, swap); err != nil {
		t.Fatalf("script: %v", err)
	}
	if err := mt.Comply(swap); err != nil {
		t.Fatalf("compliance: %v", err)
	}
	if err := mt.Patch(swap); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Errorf("patched tree should be closed and well-typed: %v", err)
	}
	if got := mt.String(); !strings.Contains(got, `Sub#3(Var#2{name="b"}, Var#1{name="a"})`) {
		t.Errorf("swap result: %s", got)
	}
}

func TestEqualTreeDetectsDifferences(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	alloc := uri.NewAllocator()
	b := tree.NewBuilder(sch, alloc)
	other := b.MustN("Add", b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Var", "X")), b.MustN("Num", 7))
	if mt.EqualTree(other) {
		t.Error("literal difference should be detected")
	}
	shape := b.MustN("Add", b.MustN("Num", 1), b.MustN("Num", 7))
	if mt.EqualTree(shape) {
		t.Error("shape difference should be detected")
	}
	if mt.EqualTree(nil) {
		t.Error("nil tree is not equal to a non-empty tree")
	}
}

func TestFromTreeRejectsDuplicateURIs(t *testing.T) {
	sch := expSchema()
	alloc := uri.NewAllocator()
	b := tree.NewBuilder(sch, alloc)
	leaf := b.MustN("Num", 1)
	// Craft a tree sharing the same node object twice (duplicate URIs).
	shared, err := tree.NewWithURI(sch, alloc, 50, "Add", []*tree.Node{leaf, leaf}, nil, tree.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTree(sch, shared); err == nil {
		t.Error("duplicate URIs should be rejected")
	}
}
