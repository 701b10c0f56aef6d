package engine

import (
	"repro/internal/telemetry"
)

// DiffEvent is the record of one engine diff, built once per diff and read
// by all of its accounting: metrics, spans, logs, and Config.Observer. It
// carries the pair's label, the trace context the diff ran under (the
// engine.diff span when tracing is on, else the pair's own), its full
// DiffStats (wall time, per-phase breakdown, sizes, edit count, identical
// and fallback flags), and the error of a failed diff.
type DiffEvent struct {
	Label string
	Trace telemetry.SpanContext
	Stats DiffStats
	Err   error
}

// TraceRecord converts the event into the JSONL trace schema consumed by
// telemetry.TraceWriter (the -trace flag of cmd/diffd).
func (ev DiffEvent) TraceRecord() telemetry.TraceRecord {
	rec := telemetry.TraceRecord{
		Pair:        ev.Label,
		SourceNodes: ev.Stats.SourceSize,
		TargetNodes: ev.Stats.TargetSize,
		WallNS:      ev.Stats.Wall.Nanoseconds(),
		Edits:       ev.Stats.Edits,
		Identical:   ev.Stats.Identical,
		Fallback:    ev.Stats.Fallback,
		ReuseRatio:  ev.Stats.ReuseRatio,
	}
	rec.SetPhases(ev.Stats.Phases)
	if ev.Trace.Valid() {
		rec.TraceID = ev.Trace.Trace.String()
		rec.SpanID = ev.Trace.Span.String()
	}
	if ev.Err != nil {
		rec.Err = ev.Err.Error()
	}
	return rec
}

// GatherMetrics implements telemetry.Gatherer: it renders the engine's
// cumulative counters, cache gauges, and latency/edit/size histograms as
// an exposition sample set. telemetry.Handler(engine) serves it at
// /metrics in Prometheus text format; metric names and semantics are
// documented in docs/OBSERVABILITY.md.
func (e *Engine) GatherMetrics() []telemetry.Metric {
	s := e.Snapshot()
	counter := func(name, help string, v uint64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)}
	}
	ratio := func(name, help string, v float64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: telemetry.KindGauge, Value: v}
	}

	ms := []telemetry.Metric{
		telemetry.BuildInfoMetric(),
		counter("structdiff_diffs_total", "Completed diffs.", s.Diffs),
		counter("structdiff_diff_errors_total", "Failed diffs (schema mismatches, nil trees).", s.Errors),
		counter("structdiff_slow_diffs_total", "Diffs at or above the slow-diff threshold.", s.SlowDiffs),
		counter("structdiff_batches_total", "DiffBatch invocations.", s.Batches),
		counter("structdiff_engine_panics_total", "Diffs that panicked and were recovered by worker isolation.", s.Panics),
		counter("structdiff_engine_timeouts_total", "Diffs aborted by the per-diff deadline.", s.Timeouts),
		counter("structdiff_engine_fallbacks_total", "Pairs served a synthesized root-replacement script.", s.Fallbacks),
		counter("structdiff_edits_total", "Compound edits over all scripts produced.", s.Edits),
		counter("structdiff_source_nodes_total", "Source-tree nodes diffed.", s.SourceNodes),
		counter("structdiff_target_nodes_total", "Target-tree nodes diffed.", s.TargetNodes),
		{
			Name: "structdiff_diff_wall_seconds_total", Kind: telemetry.KindCounter,
			Help:  "Summed per-diff wall time (exceeds elapsed time with concurrent workers).",
			Value: s.DiffWall.Seconds(),
		},
		telemetry.Metric{
			Name: "structdiff_engine_queue_depth", Kind: telemetry.KindGauge,
			Help:  "Pairs submitted to a running batch but not yet picked up by a worker.",
			Value: float64(s.QueueDepth),
		},
		telemetry.Metric{
			Name: "structdiff_engine_worker_capacity_seconds_total", Kind: telemetry.KindCounter,
			Help:  "Elapsed batch time summed across every worker of every batch (the utilization denominator).",
			Value: s.WorkerCapacity.Seconds(),
		},
		ratio("structdiff_engine_utilization_ratio",
			"Busy fraction of the worker pool: summed diff wall time over worker capacity.", s.Utilization),
		counter("structdiff_pool_gets_total", "Scratch-pool checkouts.", s.PoolGets),
		counter("structdiff_pool_misses_total", "Scratch-pool checkouts that allocated fresh state.", s.PoolMisses),
		ratio("structdiff_pool_hit_ratio", "Fraction of scratch-pool checkouts that recycled state.", s.PoolHitRate),
		{
			Name: "structdiff_diff_duration_seconds", Kind: telemetry.KindHistogram,
			Help: "Per-diff wall time.",
			Hist: e.h.latency.Snapshot(), Scale: 1e-9,
		},
	}
	for ph := 0; ph < telemetry.NumPhases; ph++ {
		ms = append(ms, telemetry.Metric{
			Name: "structdiff_phase_duration_seconds", Kind: telemetry.KindHistogram,
			Help:   "Per-phase diff time (the four truediff steps); short-circuited pairs record no phases.",
			Labels: []telemetry.Label{{Key: "phase", Value: telemetry.Phase(ph).String()}},
			Hist:   e.h.phases[ph].Snapshot(), Scale: 1e-9,
		})
	}
	ms = append(ms,
		telemetry.Metric{
			Name: "structdiff_script_edits", Kind: telemetry.KindHistogram,
			Help: "Compound edit count per script (the paper's conciseness metric).",
			Hist: e.h.edits.Snapshot(),
		},
		telemetry.Metric{
			Name: "structdiff_tree_nodes", Kind: telemetry.KindHistogram,
			Help: "Input tree sizes in nodes (two observations per diff).",
			Hist: e.h.nodes.Snapshot(),
		},
		telemetry.Metric{
			Name: "structdiff_quality_reuse_ratio", Kind: telemetry.KindHistogram,
			Help: "Per-diff fraction of target nodes produced by reusing source subtrees.",
			Hist: e.h.reuse.Snapshot(), Scale: 1e-3,
		},
	)
	return ms
}
