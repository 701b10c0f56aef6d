package structdiff_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/structdiff"
)

func TestDiffContextBackgroundMatchesDiff(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	opts := []structdiff.Option{structdiff.WithSchema(sch), structdiff.WithAllocator(alloc)}
	plain, err := structdiff.Diff(src, dst, opts...)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	// A fresh allocator state is needed for identical URIs; rebuild the pair.
	src2, dst2, sch2, alloc2 := buildPair(t)
	ctxRes, err := structdiff.DiffContext(context.Background(), src2, dst2,
		structdiff.WithSchema(sch2), structdiff.WithAllocator(alloc2))
	if err != nil {
		t.Fatalf("DiffContext: %v", err)
	}
	if plain.Script.EditCount() != ctxRes.Script.EditCount() {
		t.Errorf("DiffContext produced %d edits, Diff produced %d",
			ctxRes.Script.EditCount(), plain.Script.EditCount())
	}
	if _, err := structdiff.DiffContext(nil, src2, dst2, structdiff.WithSchema(sch2)); err != nil { //nolint:staticcheck // nil ctx tolerance is part of the contract
		t.Errorf("DiffContext with nil ctx: %v", err)
	}
}

func TestDiffContextCancellation(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := structdiff.DiffContext(ctx, src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DiffContext: err = %v, want context.Canceled", err)
	}
}

// TestDiffContextReturnsCause: a per-diff deadline is a context deadline,
// and DiffContext returns its cause: ErrDiffTimeout for a deadline set
// with that cause, context.DeadlineExceeded for a plain one.
func TestDiffContextReturnsCause(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cause", func() (context.Context, context.CancelFunc) {
			return context.WithTimeoutCause(context.Background(), time.Nanosecond, structdiff.ErrDiffTimeout)
		}, structdiff.ErrDiffTimeout},
		{"plain", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Nanosecond)
		}, context.DeadlineExceeded},
	} {
		ctx, cancel := tc.ctx()
		<-ctx.Done()
		_, err := structdiff.DiffContext(ctx, src, dst,
			structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
		cancel()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: DiffContext past its 1ns deadline: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestPatchContext(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	patched, err := structdiff.PatchContext(context.Background(), src, res.Script, structdiff.WithSchema(sch))
	if err != nil {
		t.Fatalf("PatchContext: %v", err)
	}
	if !structdiff.TreesEqual(patched, res.Patched) {
		t.Error("PatchContext result differs from Diff's patched tree")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := structdiff.PatchContext(ctx, src, res.Script, structdiff.WithSchema(sch)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled PatchContext: err = %v, want context.Canceled", err)
	}
}
