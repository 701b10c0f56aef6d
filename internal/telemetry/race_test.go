package telemetry

import (
	"io"
	"sync"
	"testing"
	"time"
)

// These tests exist to run under -race: they drive the lock-free paths
// (Histogram.Record, SLO.Observe) concurrently with the reading side
// (Snapshot, Merge, WritePrometheus) and assert only coarse invariants —
// the race detector does the real checking.

func TestHistogramConcurrentRecordSnapshotMerge(t *testing.T) {
	var h Histogram
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: snapshot and merge continuously while writers record.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc HistogramSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				acc.Merge(s)
				if acc.Count < s.Count {
					t.Error("merged count went backwards")
					return
				}
				_ = s.Quantile(0.95)
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	final := h.Snapshot()
	if final.Count != writers*per {
		t.Fatalf("final count = %d, want %d", final.Count, writers*per)
	}
}

func TestSLOConcurrentObserveSnapshotGather(t *testing.T) {
	s := NewSLO(SLOConfig{Window: 100 * time.Millisecond})
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reading side: Snapshot + exposition via WritePrometheus, as a
	// scrape would do concurrently with traffic.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Errors > snap.Requests {
					t.Error("more errors than requests in a snapshot")
					return
				}
				if err := WritePrometheus(io.Discard, SLOMetrics("x_", snap)); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				_ = snap.String()
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			for i := 0; i < per; i++ {
				// The tiny window forces constant slot recycling, hammering
				// the rotation path against concurrent snapshots.
				s.Observe(time.Duration(i)*time.Microsecond, i%10 != 0)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	// After the dust settles the newest slots still hold observations.
	if snap := s.Snapshot(); snap.Requests == 0 {
		t.Error("no requests visible after concurrent run")
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	rec := NewSpanRecorder()
	parent := NewSpanContext()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := StartSpan(rec, parent, "concurrent")
				sp.SetAttr("i", i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != workers*per {
		t.Fatalf("recorded %d spans, want %d", len(spans), workers*per)
	}
	for i := range spans {
		if spans[i].Trace != parent.Trace {
			t.Fatalf("span %d escaped the trace", i)
		}
	}
}
