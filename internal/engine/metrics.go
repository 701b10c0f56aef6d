package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// metrics holds the engine's cumulative counters. All fields are atomics so
// concurrent diffs update them without locking; Snapshot reads them without
// stopping the world, so a snapshot taken while diffs run is internally
// consistent only per counter (which is all the throughput arithmetic
// needs).
type metrics struct {
	diffs       atomic.Uint64
	errors      atomic.Uint64
	slowDiffs   atomic.Uint64
	edits       atomic.Uint64
	sourceNodes atomic.Uint64
	targetNodes atomic.Uint64
	wallNanos   atomic.Uint64

	panics    atomic.Uint64
	timeouts  atomic.Uint64
	fallbacks atomic.Uint64

	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
}

// Snapshot is a point-in-time view of an engine's cumulative counters.
type Snapshot struct {
	// Diffs counts completed diffs; Errors counts failed ones (schema
	// mismatches, nil trees). SlowDiffs counts diffs at or above
	// Config.SlowDiffThreshold (always zero when the threshold is unset).
	Diffs     uint64
	Errors    uint64
	SlowDiffs uint64

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
	// DiffWall totals per-diff wall time. With concurrent calls it can
	// exceed elapsed time; divide node totals by it for per-diff
	// throughput.
	DiffWall time.Duration

	// PoolGets counts scratch-state checkouts; PoolMisses counts the ones
	// that had to allocate fresh state. PoolHitRate is their complement's
	// ratio (1 means every diff after warm-up recycled scratch state).
	PoolGets    uint64
	PoolMisses  uint64
	PoolHitRate float64

	// StoreHits, StoreMisses and WorkerCapacity are always zero: the
	// engine keeps no tree store and no worker pool. They remain only
	// because pipebench's engine.store_hit_ratio and engine.utilization
	// columns read them, and go when the benchmark drops those columns.
	StoreHits      uint64
	StoreMisses    uint64
	WorkerCapacity time.Duration
}

// Snapshot returns the engine's counters at this instant.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Diffs:       e.m.diffs.Load(),
		Errors:      e.m.errors.Load(),
		SlowDiffs:   e.m.slowDiffs.Load(),
		Panics:      e.m.panics.Load(),
		Timeouts:    e.m.timeouts.Load(),
		Fallbacks:   e.m.fallbacks.Load(),
		Edits:       e.m.edits.Load(),
		SourceNodes: e.m.sourceNodes.Load(),
		TargetNodes: e.m.targetNodes.Load(),
		DiffWall:    time.Duration(e.m.wallNanos.Load()),
		PoolGets:    e.m.poolGets.Load(),
		PoolMisses:  e.m.poolMisses.Load(),
	}
	if s.PoolGets > 0 {
		s.PoolHitRate = float64(s.PoolGets-s.PoolMisses) / float64(s.PoolGets)
	}
	return s
}

// Sub returns the per-interval delta s − prev: every cumulative counter is
// subtracted (saturating at zero, so a snapshot of a different engine or a
// stale prev cannot wrap around) and the hit rate is recomputed over the
// interval. Taking a snapshot before and after some diffs and subtracting
// gives their metrics without resetting the engine:
//
//	before := e.Snapshot()
//	// ... DiffPair calls ...
//	delta := e.Snapshot().Sub(before)
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Diffs:       sub64(s.Diffs, prev.Diffs),
		Errors:      sub64(s.Errors, prev.Errors),
		SlowDiffs:   sub64(s.SlowDiffs, prev.SlowDiffs),
		Panics:      sub64(s.Panics, prev.Panics),
		Timeouts:    sub64(s.Timeouts, prev.Timeouts),
		Fallbacks:   sub64(s.Fallbacks, prev.Fallbacks),
		Edits:       sub64(s.Edits, prev.Edits),
		SourceNodes: sub64(s.SourceNodes, prev.SourceNodes),
		TargetNodes: sub64(s.TargetNodes, prev.TargetNodes),
		PoolGets:    sub64(s.PoolGets, prev.PoolGets),
		PoolMisses:  sub64(s.PoolMisses, prev.PoolMisses),
	}
	if s.DiffWall > prev.DiffWall {
		d.DiffWall = s.DiffWall - prev.DiffWall
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
// second of per-diff wall time (per-diff throughput). It returns 0 (never
// NaN or Inf) for snapshots with zero wall time, e.g. a fresh engine or a
// delta over short-circuited pairs only.
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
		"diffs %d (%d errors), %d edits, %d+%d nodes in %v (%.0f nodes/s)\n"+
			"resilience: %d panics, %d timeouts, %d fallbacks\n"+
			"scratch pool: %d gets, %d misses (%.1f%% hit)",
		s.Diffs, s.Errors, s.Edits, s.SourceNodes, s.TargetNodes,
		s.DiffWall.Round(time.Millisecond), s.NodesPerSecond(),
		s.Panics, s.Timeouts, s.Fallbacks,
		s.PoolGets, s.PoolMisses, 100*s.PoolHitRate,
	)
}
