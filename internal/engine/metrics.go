package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// metrics holds the engine's cumulative counters. All fields are atomics so
// workers update them without locking; Snapshot reads them without stopping
// the world, so a snapshot taken mid-batch is internally consistent only per
// counter (which is all the throughput arithmetic needs).
type metrics struct {
	diffs       atomic.Uint64
	errors      atomic.Uint64
	slowDiffs   atomic.Uint64
	batches     atomic.Uint64
	edits       atomic.Uint64
	sourceNodes atomic.Uint64
	targetNodes atomic.Uint64
	wallNanos   atomic.Uint64

	panics    atomic.Uint64
	timeouts  atomic.Uint64
	fallbacks atomic.Uint64

	poolGets   atomic.Uint64
	poolMisses atomic.Uint64

	// queueDepth gauges pairs submitted to a running batch but not yet
	// picked up by a worker; capacityNanos accumulates elapsed batch time
	// multiplied by the batch's worker count (the utilization denominator).
	queueDepth    atomic.Int64
	capacityNanos atomic.Uint64
}

// Snapshot is a point-in-time view of an engine's cumulative counters.
type Snapshot struct {
	// Diffs counts completed diffs; Errors counts failed ones (schema
	// mismatches, nil trees). Batches counts DiffBatch invocations.
	// SlowDiffs counts diffs at or above Config.SlowDiffThreshold (always
	// zero when the threshold is unset).
	Diffs     uint64
	Errors    uint64
	SlowDiffs uint64
	Batches   uint64

	// Panics counts diffs that panicked and were recovered into a
	// PanicError; Timeouts counts diffs aborted by a per-diff deadline, a
	// context deadline whose cause matches derrors.ErrDiffTimeout. Both
	// count the failure even when graceful degradation rescued the pair.
	// Fallbacks counts pairs served a synthesized root-replacement script
	// (Config.Fallback).
	Panics    uint64
	Timeouts  uint64
	Fallbacks uint64

	// Edits is the total compound edit count over all scripts produced.
	Edits uint64
	// SourceNodes and TargetNodes total the input tree sizes.
	SourceNodes uint64
	TargetNodes uint64
	// DiffWall totals per-diff wall time. With concurrent workers it
	// exceeds elapsed time; divide node totals by it for per-worker
	// throughput.
	DiffWall time.Duration

	// PoolGets counts scratch-state checkouts; PoolMisses counts the ones
	// that had to allocate fresh state. PoolHitRate is their complement's
	// ratio (1 means every diff after warm-up recycled scratch state).
	PoolGets    uint64
	PoolMisses  uint64
	PoolHitRate float64

	// StoreHits and StoreMisses are always zero: the engine keeps no tree
	// store. They remain only because pipebench's engine.store_hit_ratio
	// column reads them, and go when the benchmark drops that column.
	StoreHits   uint64
	StoreMisses uint64

	// QueueDepth gauges pairs submitted to a running batch but not yet
	// picked up by a worker (0 when no batch is in flight). WorkerCapacity
	// totals elapsed batch time across every worker of every batch — what
	// the pool could have spent diffing — and Utilization is the busy
	// fraction DiffWall / WorkerCapacity (0 with no capacity yet; values
	// near 1 mean the workers were never idle, low values mean the batch
	// was starved by feeding, skew, or short-circuited pairs).
	QueueDepth     int64
	WorkerCapacity time.Duration
	Utilization    float64
}

// Snapshot returns the engine's counters at this instant.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Diffs:          e.m.diffs.Load(),
		Errors:         e.m.errors.Load(),
		SlowDiffs:      e.m.slowDiffs.Load(),
		Batches:        e.m.batches.Load(),
		Panics:         e.m.panics.Load(),
		Timeouts:       e.m.timeouts.Load(),
		Fallbacks:      e.m.fallbacks.Load(),
		Edits:          e.m.edits.Load(),
		SourceNodes:    e.m.sourceNodes.Load(),
		TargetNodes:    e.m.targetNodes.Load(),
		DiffWall:       time.Duration(e.m.wallNanos.Load()),
		PoolGets:       e.m.poolGets.Load(),
		PoolMisses:     e.m.poolMisses.Load(),
		QueueDepth:     e.m.queueDepth.Load(),
		WorkerCapacity: time.Duration(e.m.capacityNanos.Load()),
	}
	if s.WorkerCapacity > 0 {
		s.Utilization = float64(s.DiffWall) / float64(s.WorkerCapacity)
	}
	if s.PoolGets > 0 {
		s.PoolHitRate = float64(s.PoolGets-s.PoolMisses) / float64(s.PoolGets)
	}
	return s
}

// Sub returns the per-interval delta s − prev: every cumulative counter is
// subtracted (saturating at zero, so a snapshot of a different engine or a
// stale prev cannot wrap around), the hit rate is recomputed over the
// interval, and the QueueDepth gauge keeps s's current value.
// Taking a snapshot before and after a batch and subtracting gives
// per-batch metrics without resetting the engine:
//
//	before := e.Snapshot()
//	results, _ := e.DiffBatch(ctx, pairs)
//	delta := e.Snapshot().Sub(before)
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Diffs:       sub64(s.Diffs, prev.Diffs),
		Errors:      sub64(s.Errors, prev.Errors),
		SlowDiffs:   sub64(s.SlowDiffs, prev.SlowDiffs),
		Batches:     sub64(s.Batches, prev.Batches),
		Panics:      sub64(s.Panics, prev.Panics),
		Timeouts:    sub64(s.Timeouts, prev.Timeouts),
		Fallbacks:   sub64(s.Fallbacks, prev.Fallbacks),
		Edits:       sub64(s.Edits, prev.Edits),
		SourceNodes: sub64(s.SourceNodes, prev.SourceNodes),
		TargetNodes: sub64(s.TargetNodes, prev.TargetNodes),
		PoolGets:    sub64(s.PoolGets, prev.PoolGets),
		PoolMisses:  sub64(s.PoolMisses, prev.PoolMisses),
		QueueDepth:  s.QueueDepth,
	}
	if s.DiffWall > prev.DiffWall {
		d.DiffWall = s.DiffWall - prev.DiffWall
	}
	if s.WorkerCapacity > prev.WorkerCapacity {
		d.WorkerCapacity = s.WorkerCapacity - prev.WorkerCapacity
	}
	if d.WorkerCapacity > 0 {
		d.Utilization = float64(d.DiffWall) / float64(d.WorkerCapacity)
	}
	if d.PoolGets > 0 {
		d.PoolHitRate = float64(d.PoolGets-d.PoolMisses) / float64(d.PoolGets)
	}
	return d
}

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// NodesPerSecond is the engine's processing rate: input nodes handled per
// second of per-diff wall time (per-worker throughput). It returns 0 (never
// NaN or Inf) for snapshots with zero wall time, e.g. a fresh engine or an
// all-short-circuit batch delta.
func (s Snapshot) NodesPerSecond() float64 {
	if s.DiffWall <= 0 {
		return 0
	}
	return float64(s.SourceNodes+s.TargetNodes) / s.DiffWall.Seconds()
}

// String renders the snapshot on a few lines for CLI output. The format is
// a pure function of the snapshot's fields (fixed precision, millisecond-
// rounded wall time, no maps), so fixed-value snapshots render identically
// across runs and platforms and the output can be golden-tested.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"diffs %d (%d errors, %d batches), %d edits, %d+%d nodes in %v (%.0f nodes/s)\n"+
			"resilience: %d panics, %d timeouts, %d fallbacks\n"+
			"workers: %.1f%% utilized over %v capacity, queue depth %d\n"+
			"scratch pool: %d gets, %d misses (%.1f%% hit)",
		s.Diffs, s.Errors, s.Batches, s.Edits, s.SourceNodes, s.TargetNodes,
		s.DiffWall.Round(time.Millisecond), s.NodesPerSecond(),
		s.Panics, s.Timeouts, s.Fallbacks,
		100*s.Utilization, s.WorkerCapacity.Round(time.Millisecond), s.QueueDepth,
		s.PoolGets, s.PoolMisses, 100*s.PoolHitRate,
	)
}
