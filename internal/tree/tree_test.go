package tree

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sig"
	"repro/internal/uri"
)

// testSchema builds the paper's expression schema locally (the shared
// package internal/exp depends on tree, so tests here define their own).
func testSchema() *sig.Schema {
	s := sig.NewSchema("tree-test")
	s.MustDeclare(sig.Sig{Tag: "Num", Lits: []sig.LitSpec{{Link: "n", Type: sig.IntLit}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "Var", Lits: []sig.LitSpec{{Link: "name", Type: sig.StringLit}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "Add", Kids: []sig.KidSpec{{Link: "e1", Sort: "Exp"}, {Link: "e2", Sort: "Exp"}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "Sub", Kids: []sig.KidSpec{{Link: "e1", Sort: "Exp"}, {Link: "e2", Sort: "Exp"}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "Stmt", Kids: []sig.KidSpec{{Link: "e", Sort: "Stmt"}}, Result: "Stmt"})
	return s
}

func newB(t *testing.T) *Builder {
	t.Helper()
	return NewBuilder(testSchema(), uri.NewAllocator())
}

func TestConstructionValidation(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	num, err := New(sch, alloc, "Num", nil, []any{int64(1)})
	if err != nil {
		t.Fatalf("Num: %v", err)
	}

	cases := []struct {
		name string
		tag  sig.Tag
		kids []*Node
		lits []any
	}{
		{"undeclared tag", "Nope", nil, nil},
		{"root tag", sig.RootTag, []*Node{num}, nil},
		{"wrong kid arity", "Add", []*Node{num}, nil},
		{"wrong lit arity", "Num", nil, nil},
		{"wrong lit type", "Num", nil, []any{"one"}},
		{"nil kid", "Add", []*Node{num, nil}, nil},
		{"wrong kid sort", "Stmt", []*Node{num}, nil},
	}
	for _, c := range cases {
		if _, err := New(sch, alloc, c.tag, c.kids, c.lits); err == nil {
			t.Errorf("%s: construction should fail", c.name)
		}
	}
}

func TestHeightSizeAndURIs(t *testing.T) {
	b := newB(t)
	tr := b.MustN("Add", b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Var", "b")), b.MustN("Num", 7))
	if tr.Size() != 5 {
		t.Errorf("Size = %d, want 5", tr.Size())
	}
	if tr.Height() != 2 {
		t.Errorf("Height = %d, want 2", tr.Height())
	}
	seen := map[uri.URI]bool{}
	Walk(tr, func(n *Node) {
		if n.URI == uri.Root {
			t.Error("constructed node carries the root URI")
		}
		if seen[n.URI] {
			t.Errorf("duplicate URI %s", n.URI)
		}
		seen[n.URI] = true
	})
	if len(seen) != 5 {
		t.Errorf("distinct URIs = %d, want 5", len(seen))
	}
}

func TestStructuralEquivalenceIgnoresLiterals(t *testing.T) {
	b := newB(t)
	t1 := b.MustN("Add", b.MustN("Num", 1), b.MustN("Num", 2))
	t2 := b.MustN("Add", b.MustN("Num", 3), b.MustN("Num", 4))
	t3 := b.MustN("Sub", b.MustN("Num", 1), b.MustN("Num", 2))
	if !StructurallyEquivalent(t1, t2) {
		t.Error("Add(Num1,Num2) should be structurally equivalent to Add(Num3,Num4)")
	}
	if StructurallyEquivalent(t1, t3) {
		t.Error("Add should not be structurally equivalent to Sub")
	}
	if LiterallyEquivalent(t1, t2) {
		t.Error("different literals should not be literally equivalent")
	}
	if !LiterallyEquivalent(t1, t3) {
		t.Error("Add(1,2) and Sub(1,2) should be literally equivalent (tags ignored)")
	}
}

func TestEqualIffBothEquivalences(t *testing.T) {
	b := newB(t)
	t1 := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 2))
	t2 := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 2))
	t3 := b.MustN("Add", b.MustN("Var", "b"), b.MustN("Num", 2))
	if !Equal(t1, t2) {
		t.Error("identical trees should be Equal")
	}
	if t1.ExactHash() != t2.ExactHash() {
		t.Error("identical trees should share ExactHash")
	}
	if Equal(t1, t3) || t1.ExactHash() == t3.ExactHash() {
		t.Error("literal difference should break equality")
	}
	if Equal(t1, nil) || Equal(nil, t1) {
		t.Error("nil is only equal to nil")
	}
	if !Equal(nil, nil) {
		t.Error("nil equals nil")
	}
}

func TestLiteralHashDiscriminatesTypes(t *testing.T) {
	sch := sig.NewSchema("lits")
	sch.MustDeclare(sig.Sig{Tag: "L", Lits: []sig.LitSpec{{Link: "v", Type: sig.AnyLit}}, Result: "E"})
	alloc := uri.NewAllocator()
	mk := func(v any) *Node {
		n, err := New(sch, alloc, "L", nil, []any{v})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	vals := []any{"1", int64(1), 1.0, true, false, "true"}
	for i, a := range vals {
		for j, b := range vals {
			if i == j {
				continue
			}
			if mk(a).LitHash() == mk(b).LitHash() {
				t.Errorf("literals %#v and %#v hash equal", a, b)
			}
		}
	}
	if mk(int64(1)).LitHash() != mk(int64(1)).LitHash() {
		t.Error("equal literals should hash equal")
	}
}

func TestCloneIsEqualWithFreshURIs(t *testing.T) {
	b := newB(t)
	orig := b.MustN("Add", b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Num", 1)), b.MustN("Num", 2))
	cl := Clone(orig, b.Alloc(), SHA256)
	if !Equal(orig, cl) {
		t.Fatal("clone should be Equal to the original")
	}
	if orig.StructHash() != cl.StructHash() || orig.LitHash() != cl.LitHash() {
		t.Error("clone hashes should agree with original")
	}
	uris := map[uri.URI]bool{}
	Walk(orig, func(n *Node) { uris[n.URI] = true })
	Walk(cl, func(n *Node) {
		if uris[n.URI] {
			t.Errorf("clone reuses URI %s", n.URI)
		}
	})
}

func TestFNVHashingAgreesOnEquivalences(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilderHashed(sch, alloc, FNV64)
	t1 := b.MustN("Add", b.MustN("Num", 1), b.MustN("Num", 2))
	t2 := b.MustN("Add", b.MustN("Num", 9), b.MustN("Num", 8))
	if !StructurallyEquivalent(t1, t2) {
		t.Error("FNV: structural equivalence broken")
	}
	if LiterallyEquivalent(t1, t2) {
		t.Error("FNV: literal equivalence should fail here")
	}
	if !HashedWith(t1, FNV64) || HashedWith(t1, SHA256) {
		t.Error("FNV: tree does not record that it was hashed with FNV-64")
	}
}

func TestWalkOrders(t *testing.T) {
	b := newB(t)
	tr := b.MustN("Add", b.MustN("Var", "l"), b.MustN("Var", "r"))
	var pre, post []sig.Tag
	var preLits, postLits []any
	Walk(tr, func(n *Node) {
		pre = append(pre, n.Tag)
		preLits = append(preLits, n.Lits)
	})
	WalkPost(tr, func(n *Node) {
		post = append(post, n.Tag)
		postLits = append(postLits, n.Lits)
	})
	_ = preLits
	_ = postLits
	if len(pre) != 3 || pre[0] != "Add" {
		t.Errorf("preorder = %v", pre)
	}
	if len(post) != 3 || post[2] != "Add" {
		t.Errorf("postorder = %v", post)
	}
	if Count(tr) != 3 {
		t.Errorf("Count = %d", Count(tr))
	}
}

func TestStringRendering(t *testing.T) {
	b := newB(t)
	tr := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 1))
	s := tr.String()
	for _, part := range []string{"Add", "Var", `"a"`, "Num", "1", "#"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q lacks %q", s, part)
		}
	}
	labeled := tr.StringIn(testSchema())
	if !strings.Contains(labeled, "name=") || !strings.Contains(labeled, "n=") {
		t.Errorf("StringIn() = %q lacks literal labels", labeled)
	}
}

func TestBuilderErrorHandling(t *testing.T) {
	b := newB(t)
	n := b.N("Add", b.N("Num", 1)) // arity error
	if n != nil {
		t.Error("builder should return nil on error")
	}
	if b.Err() == nil {
		t.Fatal("builder should record the error")
	}
	if b.N("Num", 1) != nil {
		t.Error("builder should stay failed after an error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustN should panic on a failed builder")
		}
	}()
	fresh := newB(t)
	fresh.MustN("Add", fresh.N("Num", 1))
}

func TestBuilderIntConvenience(t *testing.T) {
	b := newB(t)
	n := b.MustN("Num", 7) // plain int should convert to int64
	if n.Lits[0] != int64(7) {
		t.Errorf("lit = %#v, want int64(7)", n.Lits[0])
	}
}

func TestNewWithURIPreservesAndReserves(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	n, err := NewWithURI(sch, alloc, 100, "Num", nil, []any{int64(1)}, SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if n.URI != 100 {
		t.Errorf("URI = %s, want #100", n.URI)
	}
	if f := alloc.Fresh(); f <= 100 {
		t.Errorf("allocator did not reserve past 100: next = %s", f)
	}
}

// TestNewWithURITakesNoFreshURI: NewWithURI validates and hashes without
// drawing a fresh URI; it only reserves the URI it is given.
func TestNewWithURITakesNoFreshURI(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	alloc.Reserve(20)
	n, err := NewWithURI(sch, alloc, 5, "Num", nil, []any{int64(1)}, SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if n.URI != 5 || alloc.Peek() != 20 {
		t.Errorf("NewWithURI(5) gave URI %s and left Peek at %d, want #5 and 20", n.URI, alloc.Peek())
	}
	if _, err := NewWithURI(sch, alloc, 30, "Add", []*Node{n, n}, nil, SHA256); err != nil {
		t.Fatal(err)
	}
	if alloc.Peek() != 30 {
		t.Errorf("NewWithURI(30) left Peek at %d, want 30", alloc.Peek())
	}
	if _, err := NewWithURI(sch, alloc, 40, "Num", nil, []any{"not an int"}, SHA256); err == nil || alloc.Peek() != 30 {
		t.Errorf("an invalid node: err = %v, Peek %d; want an error and Peek 30", err, alloc.Peek())
	}
}

// Property: for random pairs of values, structural equivalence is decided
// purely by shape and literal equivalence purely by literals.
func TestQuickHashProperties(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	mkLeaf := func(v int64) *Node {
		n, err := New(sch, alloc, "Num", nil, []any{v})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	prop := func(a, b int64) bool {
		x := mkLeaf(a)
		y := mkLeaf(b)
		// Always structurally equivalent; literally equivalent iff a == b.
		return StructurallyEquivalent(x, y) && (LiterallyEquivalent(x, y) == (a == b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: hashing is deterministic — rebuilding the same shape yields the
// same hashes regardless of URIs.
func TestQuickHashDeterminism(t *testing.T) {
	sch := testSchema()
	prop := func(vals []int64) bool {
		if len(vals) == 0 {
			vals = []int64{0}
		}
		build := func() *Node {
			alloc := uri.NewAllocator()
			cur, err := New(sch, alloc, "Num", nil, []any{vals[0]})
			if err != nil {
				return nil
			}
			for _, v := range vals[1:] {
				leaf, err := New(sch, alloc, "Num", nil, []any{v})
				if err != nil {
					return nil
				}
				cur, err = New(sch, alloc, "Add", []*Node{cur, leaf}, nil)
				if err != nil {
					return nil
				}
			}
			return cur
		}
		x, y := build(), build()
		return x != nil && y != nil && x.StructHash() == y.StructHash() && x.LitHash() == y.LitHash()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
