package truediff

import (
	"encoding/json"
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

// diffAndVerify runs the full verification pipeline on a diff: the script
// must be well-typed (Conjecture 4.2), syntactically compliant, and
// patching the source must yield the target (Conjecture 4.3); the patched
// tree returned by Diff must equal the target as well.
func diffAndVerify(t *testing.T, d *Differ, src, dst *tree.Node, alloc *uri.Allocator) *Result {
	t.Helper()
	res, err := d.Diff(src, dst, alloc)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if err := truechange.WellTyped(d.sch, res.Script); err != nil {
		t.Fatalf("script ill-typed: %v\nsrc = %s\ndst = %s\nscript = %s", err, src, dst, res.Script)
	}
	mt, err := mtree.FromTree(d.sch, src)
	if err != nil {
		t.Fatalf("mtree: %v", err)
	}
	if err := mt.Comply(res.Script); err != nil {
		t.Fatalf("script does not comply: %v\nsrc = %s\ndst = %s\nscript = %s", err, src, dst, res.Script)
	}
	if err := mt.Patch(res.Script); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if !mt.EqualTree(dst) {
		t.Fatalf("patched tree differs from target:\npatched = %s\ntarget  = %s\nscript = %s", mt, dst, res.Script)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Fatalf("patched tree not closed: %v", err)
	}
	if !tree.Equal(res.Patched, dst) {
		t.Fatalf("returned patched tree differs from target:\n%s\n%s", res.Patched, dst)
	}
	return res
}

// TestPaperIntroExample reproduces the §1/§2 example: the minimal script
// for diff(Add1(Sub2(a3,b4), Mul5(c6,d7)), Add(d, Mul(c, Sub(a,b)))) is two
// detaches followed by two attaches.
func TestPaperIntroExample(t *testing.T) {
	b := exp.NewBuilder()
	// URIs: a=1, b=2, Sub=3, c=4, d=5, Mul=6, Add=7.
	src := b.MustN(exp.Add,
		b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b")),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Var, "d")))
	dst := b.MustN(exp.Add,
		b.MustN(exp.Var, "d"),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b"))))

	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())

	want := []string{
		`detach(Sub#3, "e1", Add#7)`,
		`detach(Var#5, "e2", Mul#6)`,
		`attach(Var#5, "e1", Add#7)`,
		`attach(Sub#3, "e2", Mul#6)`,
	}
	if len(res.Script.Edits) != len(want) {
		t.Fatalf("script length = %d, want %d:\n%s", len(res.Script.Edits), len(want), res.Script)
	}
	for i, w := range want {
		if got := res.Script.Edits[i].String(); got != w {
			t.Errorf("edit %d = %s, want %s", i, got, w)
		}
	}
	if res.Script.EditCount() != 4 {
		t.Errorf("EditCount = %d, want 4", res.Script.EditCount())
	}
}

// TestPaperSection4Example reproduces the running example of §4:
// diff(Add1(Call2("f",Num3(1)), Num4(2)), Add(Call("g",Num(1)), Sub(Num(2),Num(2)))).
// The Call is reused with a literal update, Num4 is detached and reused
// inside the freshly loaded Sub, and one Num(2) is loaded afresh.
func TestPaperSection4Example(t *testing.T) {
	b := exp.NewBuilder()
	// URIs: Num(1)=1, Call=2, Num(2)=3, Add=4.
	src := b.MustN(exp.Add,
		b.MustN(exp.Call, b.MustN(exp.Num, 1), "f"),
		b.MustN(exp.Num, 2))
	dst := b.MustN(exp.Add,
		b.MustN(exp.Call, b.MustN(exp.Num, 1), "g"),
		b.MustN(exp.Sub, b.MustN(exp.Num, 2), b.MustN(exp.Num, 2)))

	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())

	var detaches, unloads, loads, attaches, updates int
	var loadedTags []string
	for _, e := range res.Script.Edits {
		switch ed := e.(type) {
		case truechange.Detach:
			detaches++
			if ed.Node.URI != 3 {
				t.Errorf("detached %s, want Num#3", ed.Node)
			}
		case truechange.Unload:
			unloads++
		case truechange.Load:
			loads++
			loadedTags = append(loadedTags, string(ed.Node.Tag))
		case truechange.Attach:
			attaches++
		case truechange.Update:
			updates++
			if ed.Node.URI != 2 || ed.New[0].Value != "g" {
				t.Errorf("update = %s, want Call#2 f→g", ed)
			}
		}
	}
	if detaches != 1 || unloads != 0 || loads != 2 || attaches != 1 || updates != 1 {
		t.Errorf("edit profile detach/unload/load/attach/update = %d/%d/%d/%d/%d, want 1/0/2/1/1:\n%s",
			detaches, unloads, loads, attaches, updates, res.Script)
	}
	if len(loadedTags) == 2 && !(loadedTags[0] == "Num" && loadedTags[1] == "Sub") {
		t.Errorf("loads = %v, want kid Num before parent Sub", loadedTags)
	}
	// Num4 (URI 3 here) must be reused inside the loaded Sub.
	for _, e := range res.Script.Edits {
		if l, ok := e.(truechange.Load); ok && l.Node.Tag == exp.Sub {
			found := false
			for _, k := range l.Kids {
				if k.URI == 3 {
					found = true
				}
			}
			if !found {
				t.Errorf("loaded Sub does not reuse Num#3: %s", l)
			}
		}
	}
}

// TestExcessiveDemand diffs Add(a,b) against Add(b,b): one source b cannot
// be used twice, so the result is either a literal update of a (what the
// preemptive whole-tree assignment yields, since the trees are structurally
// equivalent) — and must in any case be correct and well-typed.
func TestExcessiveDemand(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b"))
	dst := b.MustN(exp.Add, b.MustN(exp.Var, "b"), b.MustN(exp.Var, "b"))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	// The trees are structurally equivalent, so the whole source is reused
	// and only one literal update is needed — even more concise than the
	// illustrative script of paper §2.
	if len(res.Script.Edits) != 1 {
		t.Errorf("script length = %d, want 1:\n%s", len(res.Script.Edits), res.Script)
	}
	if _, ok := res.Script.Edits[0].(truechange.Update); !ok {
		t.Errorf("expected a single update, got %s", res.Script)
	}
}

func TestIdenticalTreesYieldEmptyScript(t *testing.T) {
	g := exp.NewGen(1)
	for i := 0; i < 20; i++ {
		src := g.Tree(30)
		dst := tree.Clone(src, g.Alloc(), tree.SHA256)
		d := New(g.Schema())
		res := diffAndVerify(t, d, src, dst, g.Alloc())
		if !res.Script.IsEmpty() {
			t.Fatalf("identical trees produced edits:\n%s", res.Script)
		}
		if res.Patched != src {
			t.Error("identical trees should reuse the source as patched tree")
		}
	}
}

func TestLiteralOnlyChangeYieldsUpdates(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Mul, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	dst := b.MustN(exp.Mul, b.MustN(exp.Num, 10), b.MustN(exp.Num, 2))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	if len(res.Script.Edits) != 1 {
		t.Fatalf("script = %s", res.Script)
	}
	up, ok := res.Script.Edits[0].(truechange.Update)
	if !ok || up.New[0].Value != int64(10) {
		t.Errorf("expected update to 10, got %s", res.Script)
	}
}

// TestRootReplacement diffs trees with nothing in common: the whole source
// is unloaded and the target loaded.
func TestRootReplacement(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, 1)
	dst := b.MustN(exp.Add, b.MustN(exp.Var, "x"), b.MustN(exp.Var, "y"))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	// detach+unload Num, load 3 nodes, attach root: 6 raw edits.
	if res.Script.Len() != 6 {
		t.Errorf("script length = %d:\n%s", res.Script.Len(), res.Script)
	}
	if res.Script.EditCount() != 4 { // del(Num) + 2 loads + ins(Add)
		t.Errorf("EditCount = %d, want 4", res.Script.EditCount())
	}
}

// TestSubtreeNotReusedTwice verifies linearity under excessive demand of a
// larger subtree: Call("f", Num(7)) required twice, present once.
func TestSubtreeNotReusedTwice(t *testing.T) {
	b := exp.NewBuilder()
	callOf := func(name string) *tree.Node {
		return b.MustN(exp.Call, b.MustN(exp.Num, 7), name)
	}
	src := b.MustN(exp.Add, callOf("f"), b.MustN(exp.Num, 0))
	dst := b.MustN(exp.Add, callOf("f"), callOf("f"))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	// The source Call is reused once; the second occurrence must be loaded
	// (2 loads: Num and Call) — or the literal-update path may cover one
	// side. Either way the verification above guarantees linear use.
	if res.Script.IsEmpty() {
		t.Error("demanding a subtree twice requires edits")
	}
}

// TestPropertyRandomMutations is the reproduction of the paper's >200 test
// cases for Conjectures 4.2 and 4.3: across many random trees and
// mutation sequences, the generated script is well-typed, compliant, and
// correct.
func TestPropertyRandomMutations(t *testing.T) {
	d := New(exp.Schema())
	cases := 0
	for seed := int64(0); seed < 25; seed++ {
		g := exp.NewGen(seed)
		for _, size := range []int{1, 2, 5, 20, 80} {
			src := g.Tree(size)
			for _, edits := range []int{1, 3, 8} {
				dst := g.MutateN(src, edits)
				diffAndVerify(t, d, src, dst, g.Alloc())
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases exercised, want ≥ 200", cases)
	}
}

// TestPropertyUnrelatedTrees diffs completely unrelated random trees.
func TestPropertyUnrelatedTrees(t *testing.T) {
	d := New(exp.Schema())
	g := exp.NewGen(42)
	for i := 0; i < 30; i++ {
		src := g.Tree(3 + i*5)
		dst := g.Tree(2 + i*7)
		diffAndVerify(t, d, src, dst, g.Alloc())
	}
}

// TestOptionCombinations runs the correctness property under every ablation
// configuration.
func TestOptionCombinations(t *testing.T) {
	for _, equiv := range []EquivMode{StructuralWithLiteralPreference, ExactOnly, StructuralNoPreference} {
		for _, order := range []SelectionOrder{HighestFirst, FIFO} {
			for _, upd := range []bool{false, true} {
				opts := Options{Equiv: equiv, Order: order, UpdateOnLitMismatch: upd}
				name := fmt.Sprintf("equiv=%d order=%d upd=%v", equiv, order, upd)
				t.Run(name, func(t *testing.T) {
					d := NewWithOptions(exp.Schema(), opts)
					g := exp.NewGen(7)
					for i := 0; i < 15; i++ {
						src := g.Tree(40)
						dst := g.MutateN(src, 4)
						diffAndVerify(t, d, src, dst, g.Alloc())
					}
				})
			}
		}
	}
}

// TestPreferredCandidateSelection checks that an exact copy is preferred
// over a structurally equivalent candidate with different literals.
func TestPreferredCandidateSelection(t *testing.T) {
	b := exp.NewBuilder()
	// Source has two structurally equivalent subtrees: Call("f",Num 1) and
	// Call("g",Num 2). Target demands Call("g",Num 2) in a fresh context;
	// the exact copy must be chosen, yielding zero updates.
	src := b.MustN(exp.Add,
		b.MustN(exp.Call, b.MustN(exp.Num, 1), "f"),
		b.MustN(exp.Call, b.MustN(exp.Num, 2), "g"))
	dst := b.MustN(exp.Sub,
		b.MustN(exp.Call, b.MustN(exp.Num, 2), "g"),
		b.MustN(exp.Num, 99))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	for _, e := range res.Script.Edits {
		if up, ok := e.(truechange.Update); ok && up.New[0].Value == "g" {
			t.Errorf("preferred selection should have reused the exact copy, got %s", up)
		}
	}

	// Under StructuralNoPreference the first registered candidate (the
	// "f" call) is taken instead, requiring a literal update. Rebuild the
	// trees so no node objects are shared with the earlier run.
	b2 := exp.NewBuilder()
	src2 := b2.MustN(exp.Add,
		b2.MustN(exp.Call, b2.MustN(exp.Num, 1), "f"),
		b2.MustN(exp.Call, b2.MustN(exp.Num, 2), "g"))
	dst2 := b2.MustN(exp.Sub,
		b2.MustN(exp.Call, b2.MustN(exp.Num, 2), "g"),
		b2.MustN(exp.Num, 99))
	d2 := NewWithOptions(b2.Schema(), Options{Equiv: StructuralNoPreference})
	res2 := diffAndVerify(t, d2, src2, dst2, b2.Alloc())
	sawCallAdaption := false
	for _, e := range res2.Script.Edits {
		if up, ok := e.(truechange.Update); ok && up.New[0].Value == "g" {
			sawCallAdaption = true
		}
	}
	if !sawCallAdaption {
		t.Error("no-preference selection should have picked the inexact candidate and adapted f→g")
	}
}

// TestHighestFirstAvoidsFragmentation: moving a large subtree as a whole
// must not be broken into pieces by reusing its fragments elsewhere first.
func TestHighestFirstAvoidsFragmentation(t *testing.T) {
	b := exp.NewBuilder()
	big := b.MustN(exp.Add,
		b.MustN(exp.Mul, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2)),
		b.MustN(exp.Mul, b.MustN(exp.Num, 3), b.MustN(exp.Num, 4)))
	src := b.MustN(exp.Call, big, "f")
	// Target moves `big` under a new wrapper.
	bigCopy := tree.Clone(big, b.Alloc(), tree.SHA256)
	dst := b.MustN(exp.Sub, bigCopy, b.MustN(exp.Num, 9))
	d := New(b.Schema())
	res := diffAndVerify(t, d, src, dst, b.Alloc())
	// big (7 nodes) is reused wholesale: no unload of its nodes and no
	// loads except Sub and Num(9).
	loads := 0
	for _, e := range res.Script.Edits {
		if _, ok := e.(truechange.Load); ok {
			loads++
		}
	}
	if loads != 2 {
		t.Errorf("loads = %d, want 2 (Sub, Num 9):\n%s", loads, res.Script)
	}
}

// TestInitialScript checks Definition 3.2 scripts produced for a fresh tree.
func TestInitialScript(t *testing.T) {
	g := exp.NewGen(3)
	d := New(g.Schema())
	for i := 0; i < 10; i++ {
		target := g.Tree(25)
		res, err := d.InitialScript(target, g.Alloc())
		if err != nil {
			t.Fatal(err)
		}
		if err := truechange.WellTypedInit(g.Schema(), res.Script); err != nil {
			t.Fatalf("initial script ill-typed: %v", err)
		}
		mt := mtree.New(g.Schema())
		if err := mt.Patch(res.Script); err != nil {
			t.Fatalf("patch: %v", err)
		}
		if !mt.EqualTree(target) {
			t.Fatalf("initialized tree differs from target")
		}
		if err := mt.CheckClosed(); err != nil {
			t.Fatal(err)
		}
		// One load per node plus the final attach.
		if res.Script.Len() != target.Size()+1 {
			t.Errorf("script length = %d, want %d", res.Script.Len(), target.Size()+1)
		}
	}
}

// TestPatchedTreeChains verifies the patched tree can drive a subsequent
// diff (the paper's use in incremental computing).
func TestPatchedTreeChains(t *testing.T) {
	g := exp.NewGen(11)
	d := New(g.Schema())
	cur := g.Tree(60)
	for i := 0; i < 20; i++ {
		next := g.Mutate(cur)
		res, err := d.Diff(cur, next, g.Alloc())
		if err != nil {
			t.Fatal(err)
		}
		if err := truechange.WellTyped(g.Schema(), res.Script); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !tree.Equal(res.Patched, next) {
			t.Fatalf("round %d: patched ≠ target", i)
		}
		cur = res.Patched
	}
}

// TestConcisenessSmallEditSmallScript: a single literal mutation in a large
// tree must yield a script that does not grow with the tree.
func TestConcisenessSmallEditSmallScript(t *testing.T) {
	for _, size := range []int{50, 500, 5000} {
		g := exp.NewGen(int64(size))
		src := g.Tree(size)
		dst := g.Mutate(src)
		d := New(g.Schema())
		res, err := d.Diff(src, dst, g.Alloc())
		if err != nil {
			t.Fatal(err)
		}
		// A single mutation touches at most a small replaced subtree (the
		// generator inserts trees of ≤ 7 nodes) plus spine effects.
		if res.Script.EditCount() > 25 {
			t.Errorf("size %d: single mutation produced %d edits", size, res.Script.EditCount())
		}
	}
}

func TestDiffNilAndAllocDefaults(t *testing.T) {
	b := exp.NewBuilder()
	n := b.MustN(exp.Num, 1)
	d := New(b.Schema())
	if _, err := d.Diff(nil, n, nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := d.Diff(n, nil, nil); err == nil {
		t.Error("nil target should fail")
	}
	if _, err := d.InitialScript(nil, nil); err == nil {
		t.Error("nil target should fail")
	}
	// nil allocator: Diff must still produce fresh URIs not colliding with
	// the source.
	b2 := exp.NewBuilder()
	src := b2.MustN(exp.Num, 1)
	dst := b2.MustN(exp.Add, b2.MustN(exp.Var, "x"), b2.MustN(exp.Var, "y"))
	res, err := d.Diff(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uri.URI]bool{src.URI: true}
	for _, e := range res.Script.Edits {
		if l, ok := e.(truechange.Load); ok {
			if seen[l.Node.URI] {
				t.Errorf("loaded URI %s collides", l.Node.URI)
			}
			seen[l.Node.URI] = true
		}
	}
}

// The schema check skips its walk only for trees whose schema record is the
// differ's schema. A tree built against another schema, or assembled by
// hand without a record, is walked, so an undeclared tag anywhere in it
// still fails the diff.
func TestSchemaCheckWalksUnrecordedTrees(t *testing.T) {
	b := exp.NewBuilder()
	d := New(b.Schema())
	good := b.MustN(exp.Add, b.MustN(exp.Num, 1), b.MustN(exp.Var, "x"))

	foreign := sig.NewSchema("foreign")
	foreign.MustDeclare(sig.Sig{Tag: "Foo", Result: exp.Exp})
	foo := tree.NewBuilder(foreign, b.Alloc()).MustN("Foo")
	handmade := &tree.Node{Tag: exp.Add, URI: b.Alloc().Fresh(), Kids: []*tree.Node{
		b.MustN(exp.Num, 2), {Tag: "Foo", URI: b.Alloc().Fresh()}}}
	for name, bad := range map[string]*tree.Node{"foreign schema": foo, "hand-assembled": handmade} {
		for _, pair := range [][2]*tree.Node{{good, bad}, {bad, good}} {
			if _, err := d.Diff(pair[0], pair[1], b.Alloc()); !errors.Is(err, derrors.ErrSchemaMismatch) {
				t.Errorf("%s: err = %v, want ErrSchemaMismatch", name, err)
			}
		}
	}
	// Another instance of the same schema declares every tag, so its trees
	// pass the walk.
	twinSch := sig.NewSchema("exp")
	for _, tag := range exp.Schema().Tags() {
		if tag != sig.RootTag {
			twinSch.MustDeclare(*exp.Schema().Lookup(tag))
		}
	}
	twin := tree.NewBuilder(twinSch, uri.NewAllocator())
	diffAndVerify(t, d, good, twin.MustN(exp.Num, 3), b.Alloc())
}

// TestInverseScriptsRestoreOriginal: applying a diff's script and then the
// inverse script restores the original tree — truechange patches are
// invertible values (the darcs-style patch-theory angle of paper §7).
func TestInverseScriptsRestoreOriginal(t *testing.T) {
	d := New(exp.Schema())
	for seed := int64(0); seed < 10; seed++ {
		g := exp.NewGen(seed)
		src := g.Tree(45)
		dst := g.MutateN(src, 3)
		res, err := d.Diff(src, dst, g.Alloc())
		if err != nil {
			t.Fatal(err)
		}
		inv := truechange.Invert(res.Script)
		if err := truechange.WellTyped(g.Schema(), inv); err != nil {
			t.Fatalf("seed %d: inverse ill-typed: %v", seed, err)
		}
		mt, err := mtree.FromTree(g.Schema(), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(res.Script); err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(inv); err != nil {
			t.Fatalf("seed %d: inverse patch failed: %v", seed, err)
		}
		if !mt.EqualTree(src) {
			t.Fatalf("seed %d: forward+inverse did not restore the original", seed)
		}
		if err := mt.CheckClosed(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScriptsSurviveWireFormat: a generated script serialized to JSON and
// back still type-checks and patches correctly (the transmission use case).
func TestScriptsSurviveWireFormat(t *testing.T) {
	d := New(exp.Schema())
	g := exp.NewGen(77)
	src := g.Tree(40)
	dst := g.MutateN(src, 3)
	res, err := d.Diff(src, dst, g.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Script)
	if err != nil {
		t.Fatal(err)
	}
	var back truechange.Script
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := truechange.WellTyped(g.Schema(), &back); err != nil {
		t.Fatalf("deserialized script ill-typed: %v", err)
	}
	mt, err := mtree.FromTree(g.Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(&back); err != nil {
		t.Fatal(err)
	}
	if !mt.EqualTree(dst) {
		t.Fatal("deserialized script patched incorrectly")
	}
}

// TestComposeNormalizePreservesSemantics: composing per-edit scripts of an
// editing session with truechange.Compose yields one normalized script
// that is well-typed and takes the original tree to the final tree — the
// composition pattern of incremental pipelines.
func TestComposeNormalizePreservesSemantics(t *testing.T) {
	d := New(exp.Schema())
	for seed := int64(0); seed < 8; seed++ {
		g := exp.NewGen(seed)
		start := g.Tree(35)
		cur := start
		var scripts []*truechange.Script
		for step := 0; step < 6; step++ {
			next := g.Mutate(cur)
			res, err := d.Diff(cur, next, g.Alloc())
			if err != nil {
				t.Fatal(err)
			}
			scripts = append(scripts, res.Script)
			cur = res.Patched
		}
		composed := truechange.Compose(scripts...)
		if err := truechange.WellTyped(g.Schema(), composed); err != nil {
			t.Fatalf("seed %d: composed script ill-typed: %v", seed, err)
		}
		raw := truechange.Concat(scripts...)
		if composed.Len() > raw.Len() {
			t.Errorf("seed %d: normalization grew the script: %d > %d", seed, composed.Len(), raw.Len())
		}
		mt, err := mtree.FromTree(g.Schema(), start)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(composed); err != nil {
			t.Fatalf("seed %d: composed patch failed: %v", seed, err)
		}
		if !mt.EqualTree(cur) {
			t.Fatalf("seed %d: composed script does not reach the final tree", seed)
		}
		if err := mt.CheckClosed(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestComposeEditSessionShrinks: an edit that is later reverted should
// shrink under normalization (update fusion drops the net no-op).
func TestComposeEditSessionShrinks(t *testing.T) {
	b := exp.NewBuilder()
	v1 := b.MustN(exp.Mul, b.MustN(exp.Num, 1), b.MustN(exp.Var, "x"))
	d := New(b.Schema())
	// Session: change literal 1→5, then back 5→1.
	v2target := b.MustN(exp.Mul, b.MustN(exp.Num, 5), b.MustN(exp.Var, "x"))
	r1, err := d.Diff(v1, v2target, b.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	v3target := b.MustN(exp.Mul, b.MustN(exp.Num, 1), b.MustN(exp.Var, "x"))
	r2, err := d.Diff(r1.Patched, v3target, b.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	composed := truechange.Compose(r1.Script, r2.Script)
	if composed.Len() != 0 {
		t.Errorf("do+undo should normalize to the empty script:\n%s", composed)
	}
}
