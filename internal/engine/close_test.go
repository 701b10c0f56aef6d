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
	e := New(exp.Schema(), Config{})
	tps := makePairs(t, 1)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	p := tps[0].pair
	if pr := e.DiffPair(context.Background(), p); !errors.Is(pr.Err, derrors.ErrEngineClosed) || pr.Result != nil {
		t.Fatalf("DiffPair after Close: got %+v, want only ErrEngineClosed", pr)
	}
	if _, err := e.Diff(context.Background(), p.Source, p.Target, p.Alloc); !errors.Is(err, derrors.ErrEngineClosed) {
		t.Fatalf("Diff after Close: got %v, want ErrEngineClosed", err)
	}
}

// TestCloseDrainsInFlightBatch is the leak detector for in-flight calls:
// Close must not return while a DiffPair call is still running. Eight
// concurrent calls are slowed down with per-diff delay faults, Close races
// them once every one has registered with the engine, and when Close
// returns every diff must already be counted, and none may be counted
// later.
func TestCloseDrainsInFlightBatch(t *testing.T) {
	e := New(exp.Schema(), Config{
		Faults: faultinject.New(1, faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Delay, Delay: 5 * time.Millisecond}),
	})
	tps := makePairs(t, 8)

	var wg sync.WaitGroup
	wg.Add(len(tps))
	for _, tp := range tps {
		go func(p Pair) {
			defer wg.Done()
			if pr := e.DiffPair(context.Background(), p); pr.Err != nil {
				t.Errorf("DiffPair: %v", pr.Err)
			}
		}(tp.pair)
	}
	// Close must race calls that are already in flight. A call checks out
	// its scratch state right after it registers with the engine; closing
	// before that would reject it with ErrEngineClosed instead of draining
	// it.
	for deadline := time.Now().Add(10 * time.Second); e.Snapshot().PoolGets < uint64(len(tps)); {
		if time.Now().After(deadline) {
			t.Fatal("the DiffPair calls never all registered with the engine")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s1 := e.Snapshot()
	if s1.Diffs != uint64(len(tps)) {
		t.Fatalf("Diffs after Close = %d, want %d (Close returned before the calls finished)", s1.Diffs, len(tps))
	}
	wg.Wait()
	if s2 := e.Snapshot(); s2.Diffs != s1.Diffs || s2.Errors != 0 {
		t.Fatalf("diffs counted after Close returned: %+v -> %+v", s1, s2)
	}
}
