package quality

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/truediff"
)

func TestMinimalEditsIdentical(t *testing.T) {
	b := exp.NewBuilder()
	a := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	c := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	got, ok := MinimalEdits(a, c, DefaultBaselineMaxNodes)
	if !ok || got != 0 {
		t.Fatalf("MinimalEdits(identical) = %d, %v; want 0, true", got, ok)
	}
}

func TestMinimalEditsRelabel(t *testing.T) {
	b := exp.NewBuilder()
	a := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	c := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(3)))
	got, ok := MinimalEdits(a, c, DefaultBaselineMaxNodes)
	if !ok || got != 1 {
		t.Fatalf("MinimalEdits(one relabel) = %d, %v; want 1, true", got, ok)
	}
}

func TestMinimalEditsInsert(t *testing.T) {
	b := exp.NewBuilder()
	a := b.MustN(exp.Num, int64(1))
	c := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	got, ok := MinimalEdits(a, c, DefaultBaselineMaxNodes)
	if !ok || got != 2 {
		t.Fatalf("MinimalEdits(insert Add+Num) = %d, %v; want 2, true", got, ok)
	}
}

func TestMinimalEditsOrderMatters(t *testing.T) {
	// Ordered TED cannot swap siblings for free: both leaves relabel.
	b := exp.NewBuilder()
	a := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	c := b.MustN(exp.Add, b.MustN(exp.Num, int64(2)), b.MustN(exp.Num, int64(1)))
	got, ok := MinimalEdits(a, c, DefaultBaselineMaxNodes)
	if !ok || got != 2 {
		t.Fatalf("MinimalEdits(swapped leaves) = %d, %v; want 2, true", got, ok)
	}
}

func TestMinimalEditsCap(t *testing.T) {
	b := exp.NewBuilder()
	a := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	c := b.MustN(exp.Num, int64(1))
	if _, ok := MinimalEdits(a, c, 2); ok {
		t.Fatal("MinimalEdits over the node cap must report ok=false")
	}
}

func TestMinimalEditsSymmetric(t *testing.T) {
	// Unit-cost TED is a metric; check symmetry over seeded random pairs.
	g := exp.NewGen(7)
	for i := 0; i < 10; i++ {
		a := g.Tree(40)
		b := g.MutateN(g.Tree(40), 3)
		ab, ok1 := MinimalEdits(a, b, 200)
		ba, ok2 := MinimalEdits(b, a, 200)
		if !ok1 || !ok2 || ab != ba {
			t.Fatalf("round %d: MinimalEdits not symmetric: %d (%v) vs %d (%v)", i, ab, ok1, ba, ok2)
		}
		replaceAll := a.Size() + b.Size()
		if ab > replaceAll {
			t.Fatalf("round %d: distance %d exceeds delete-all+insert-all bound %d", i, ab, replaceAll)
		}
	}
}

func TestGapEdgeCases(t *testing.T) {
	if g := Gap(0, 0); g != 0 {
		t.Fatalf("Gap(0,0) = %v, want 0", g)
	}
	if g := Gap(3, 0); g != 3 {
		t.Fatalf("Gap(3,0) = %v, want 3", g)
	}
	if g := Gap(4, 4); g != 0 {
		t.Fatalf("Gap(4,4) = %v, want 0", g)
	}
	if g := Gap(2, 4); g != -0.5 {
		t.Fatalf("Gap(2,4) = %v, want -0.5", g)
	}
}

func TestMeasureOnDiff(t *testing.T) {
	g := exp.NewGen(11)
	src := g.Tree(60)
	dst := g.MutateN(src, 4)
	d := truediff.New(g.Schema())
	res, err := d.Diff(src, dst, g.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(src, dst, res.Script, 200)
	if m.RawEdits != res.Script.Len() || m.CompoundEdits != res.Script.EditCount() {
		t.Fatalf("edit counts disagree with script: %+v", m)
	}
	if m.ReuseRatio < 0 || m.ReuseRatio > 1 {
		t.Fatalf("reuse ratio out of range: %v", m.ReuseRatio)
	}
	if !m.Baselined {
		t.Fatalf("small trees must be baselined: %+v", m)
	}
	if m.MinimalEdits <= 0 {
		t.Fatalf("mutated pair must have positive minimal distance: %+v", m)
	}
	if m.ChangedNodes <= 0 || m.EditsPerChangedNode <= 0 {
		t.Fatalf("non-empty script must touch nodes: %+v", m)
	}
}

func TestMeasureIdenticalPair(t *testing.T) {
	// Two generators with the same seed produce content-identical trees
	// that share no node, so the pair is identical by content alone.
	g := exp.NewGen(13)
	src := g.Tree(30)
	dst := exp.NewGen(13).Tree(30)
	d := truediff.New(g.Schema())
	res, err := d.Diff(src, dst, g.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(src, dst, res.Script, 200)
	if m.CompoundEdits != 0 || m.ChangedNodes != 0 {
		t.Fatalf("identical pair produced edits: %+v", m)
	}
	if m.ReuseRatio != 1 {
		t.Fatalf("identical pair reuse ratio = %v, want 1", m.ReuseRatio)
	}
	if !m.Baselined || m.MinimalEdits != 0 || m.OptimalityGap != 0 {
		t.Fatalf("identical pair baseline: %+v", m)
	}
}
