package truediff

import (
	"context"
	"errors"
	"testing"

	"repro/internal/exp"
	"repro/internal/mtree"
	"repro/internal/truechange"
)

func TestCheckpointAbortsMidDiff(t *testing.T) {
	d := NewWithOptions(exp.Schema(), Options{CheckpointEvery: 8})
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, int64(0))
	dst := b.MustN(exp.Num, int64(1))
	for i := 0; i < 200; i++ {
		src = b.MustN(exp.Add, src, b.MustN(exp.Num, int64(i)))
		dst = b.MustN(exp.Add, dst, b.MustN(exp.Num, int64(i+1)))
	}

	sentinel := errors.New("stop now")
	calls := 0
	cp := func() error {
		calls++
		if calls >= 3 {
			return sentinel
		}
		return nil
	}
	res, err := d.DiffScratch(context.Background(), src, dst, nil, NewScratch(), cp)
	if res != nil || err == nil {
		t.Fatalf("DiffScratch = (%v, %v), want abort", res, err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("abort error %v does not wrap the checkpoint error", err)
	}
	if calls != 3 {
		t.Fatalf("checkpoint polled %d times after abort, want exactly 3", calls)
	}
}

func TestCheckpointNilIsUnchecked(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add, b.MustN(exp.Num, int64(1)), b.MustN(exp.Num, int64(2)))
	dst := b.MustN(exp.Add, b.MustN(exp.Num, int64(2)), b.MustN(exp.Num, int64(1)))
	d := New(exp.Schema())
	got, err := d.DiffScratch(context.Background(), src, dst, nil, NewScratch(), nil)
	if err != nil {
		t.Fatalf("nil checkpoint diff failed: %v", err)
	}
	want, err := d.Diff(src, dst, nil)
	if err != nil {
		t.Fatalf("plain diff failed: %v", err)
	}
	if got.Script.String() != want.Script.String() {
		t.Fatal("checked diff with nil checkpoint produced a different script")
	}
}

func TestScratchReusableAfterAbort(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, int64(0))
	dst := b.MustN(exp.Num, int64(1))
	for i := 0; i < 64; i++ {
		src = b.MustN(exp.Add, src, b.MustN(exp.Num, int64(i)))
		dst = b.MustN(exp.Add, dst, b.MustN(exp.Num, int64(2*i)))
	}
	d := NewWithOptions(exp.Schema(), Options{CheckpointEvery: 4})
	s := NewScratch()

	abort := errors.New("abort")
	if _, err := d.DiffScratch(context.Background(), src, dst, nil, s, func() error { return abort }); !errors.Is(err, abort) {
		t.Fatalf("expected abort, got %v", err)
	}

	// The same scratch must produce a correct script afterwards.
	res, err := d.DiffScratch(context.Background(), src, dst, nil, s, nil)
	if err != nil {
		t.Fatalf("diff after abort: %v", err)
	}
	if err := truechange.WellTyped(d.sch, res.Script); err != nil {
		t.Fatalf("script after abort ill-typed: %v", err)
	}
	mt, err := mtree.FromTree(d.sch, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(res.Script); err != nil {
		t.Fatalf("patch after abort: %v", err)
	}
	if !mt.EqualTree(dst) {
		t.Fatal("patched tree differs from target after scratch reuse")
	}
}

func TestDiffCtxCancellation(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Num, int64(0))
	dst := b.MustN(exp.Num, int64(1))
	for i := 0; i < 64; i++ {
		src = b.MustN(exp.Add, src, b.MustN(exp.Num, int64(i)))
		dst = b.MustN(exp.Add, dst, b.MustN(exp.Num, int64(i+7)))
	}
	d := NewWithOptions(exp.Schema(), Options{CheckpointEvery: 1})

	diffCtx := func(ctx context.Context) error {
		_, err := d.DiffScratch(ctx, src, dst, nil, NewScratch(), CtxCheckpoint(ctx, 0))
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first poll must abort
	if err := diffCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("diff on cancelled ctx = %v, want context.Canceled", err)
	}

	// A background context keeps the unchecked fast path and succeeds.
	if err := diffCtx(context.Background()); err != nil {
		t.Fatalf("diff on background ctx failed: %v", err)
	}
	if cp := CtxCheckpoint(context.Background(), 0); cp != nil {
		t.Fatal("CtxCheckpoint(Background, 0) should be nil (unchecked fast path)")
	}
}

func TestRootReplaceWellTypedAndPatches(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add,
		b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b")),
		b.MustN(exp.Num, int64(7)))
	dst := b.MustN(exp.Mul, b.MustN(exp.Var, "a"), b.MustN(exp.Num, int64(9)))

	d := New(exp.Schema())
	res, err := d.RootReplace(src, dst, b.Alloc())
	if err != nil {
		t.Fatalf("RootReplace: %v", err)
	}
	if err := truechange.WellTyped(d.sch, res.Script); err != nil {
		t.Fatalf("root-replace script ill-typed: %v", err)
	}
	// Maximally verbose: every source node unloaded, every target node
	// loaded, plus the root detach/attach.
	if got, want := res.Script.Len(), src.Size()+dst.Size()+2; got != want {
		t.Fatalf("script has %d operations, want %d", got, want)
	}
	mt, err := mtree.FromTree(d.sch, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Patch(res.Script); err != nil {
		t.Fatalf("patching root-replace script: %v", err)
	}
	if !mt.EqualTree(dst) {
		t.Fatalf("root-replace patch differs from target:\n%s\n%s", mt, dst)
	}
	if err := mt.CheckClosed(); err != nil {
		t.Fatalf("tree not closed after root replace: %v", err)
	}
}

func TestRootReplaceNilTrees(t *testing.T) {
	d := New(exp.Schema())
	b := exp.NewBuilder()
	n := b.MustN(exp.Num, int64(1))
	if _, err := d.RootReplace(nil, n, nil); err == nil {
		t.Fatal("RootReplace(nil, n) succeeded")
	}
	if _, err := d.RootReplace(n, nil, nil); err == nil {
		t.Fatal("RootReplace(n, nil) succeeded")
	}
}
