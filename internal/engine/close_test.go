package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/faultinject"
)

func TestCloseRejectsNewWork(t *testing.T) {
	e := New(exp.Schema(), Config{Workers: 2})
	tps := makePairs(t, 2)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); !errors.Is(err, derrors.ErrEngineClosed) {
		t.Fatalf("DiffBatch after Close: got %v, want ErrEngineClosed", err)
	}
	p := tps[0].pair
	if _, err := e.Diff(context.Background(), p.Source, p.Target, p.Alloc); !errors.Is(err, derrors.ErrEngineClosed) {
		t.Fatalf("Diff after Close: got %v, want ErrEngineClosed", err)
	}
}

// TestCloseDrainsInFlightBatch is the worker-leak detector: Close must not
// return while a batch still has workers running. The batch is slowed down
// with per-diff delay faults, Close races it, and after Close returns the
// engine's gauges must have settled — QueueDepth back to zero and
// WorkerCapacity stable across successive snapshots, which can only hold
// once every worker goroutine has exited its batch.
func TestCloseDrainsInFlightBatch(t *testing.T) {
	e := New(exp.Schema(), Config{
		Workers: 2,
		Faults:  faultinject.New(1, faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Delay, Delay: 5 * time.Millisecond}),
	})
	tps := makePairs(t, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
			t.Errorf("DiffBatch: %v", err)
		}
	}()
	// Close must race a batch that is already in flight. Batches counts up
	// right after DiffBatch registers with the engine; closing before that
	// would reject the batch with ErrEngineClosed instead of draining it.
	for deadline := time.Now().Add(10 * time.Second); e.Snapshot().Batches == 0; {
		if time.Now().After(deadline) {
			t.Fatal("DiffBatch never registered with the engine")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s1 := e.Snapshot()
	if s1.QueueDepth != 0 {
		t.Fatalf("QueueDepth after Close = %d, want 0 (workers leaked past Close)", s1.QueueDepth)
	}
	s2 := e.Snapshot()
	if s2.WorkerCapacity != s1.WorkerCapacity {
		t.Fatalf("WorkerCapacity still growing after Close (%v -> %v): batch not drained", s1.WorkerCapacity, s2.WorkerCapacity)
	}
	if s1.Diffs != uint64(len(tps)) {
		t.Fatalf("Diffs after Close = %d, want %d (Close returned before the batch finished)", s1.Diffs, len(tps))
	}
	wg.Wait()
}
