package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/uri"
)

func TestSnapshotSub(t *testing.T) {
	cur := Snapshot{
		Diffs: 10, Errors: 2, SlowDiffs: 3, Batches: 4, Edits: 100,
		SourceNodes: 1000, TargetNodes: 1200, DiffWall: 100 * time.Millisecond,
		PoolGets: 8, PoolMisses: 2, QueueDepth: 7,
	}
	prev := Snapshot{
		Diffs: 4, Errors: 2, SlowDiffs: 1, Batches: 1, Edits: 40,
		SourceNodes: 400, TargetNodes: 500, DiffWall: 60 * time.Millisecond,
		PoolGets: 4, PoolMisses: 2, QueueDepth: 3,
	}
	d := cur.Sub(prev)

	if d.Diffs != 6 || d.Errors != 0 || d.SlowDiffs != 2 || d.Batches != 3 || d.Edits != 60 {
		t.Errorf("counter deltas wrong: %+v", d)
	}
	if d.SourceNodes != 600 || d.TargetNodes != 700 {
		t.Errorf("node deltas wrong: %+v", d)
	}
	if d.DiffWall != 40*time.Millisecond {
		t.Errorf("DiffWall = %v, want 40ms", d.DiffWall)
	}
	// The interval hit rate is recomputed from the deltas, not copied.
	if d.PoolGets != 4 || d.PoolMisses != 0 || d.PoolHitRate != 1 {
		t.Errorf("pool delta wrong: gets %d misses %d rate %v", d.PoolGets, d.PoolMisses, d.PoolHitRate)
	}
	// The queue-depth gauge keeps the current value.
	if d.QueueDepth != 7 {
		t.Errorf("gauge not kept: queue depth %d", d.QueueDepth)
	}

	// Subtracting a larger (stale or foreign) snapshot saturates at zero
	// instead of wrapping around.
	z := prev.Sub(cur)
	if z.Diffs != 0 || z.Edits != 0 || z.DiffWall != 0 || z.PoolGets != 0 {
		t.Errorf("saturating subtraction failed: %+v", z)
	}
}

func TestNodesPerSecondZeroDuration(t *testing.T) {
	var s Snapshot
	if got := s.NodesPerSecond(); got != 0 {
		t.Errorf("empty snapshot NodesPerSecond = %v, want 0", got)
	}
	s.SourceNodes, s.TargetNodes = 5000, 5000
	if got := s.NodesPerSecond(); got != 0 {
		t.Errorf("zero-wall NodesPerSecond = %v, want 0 (never NaN/Inf)", got)
	}
	s.DiffWall = -time.Second
	if got := s.NodesPerSecond(); got != 0 {
		t.Errorf("negative-wall NodesPerSecond = %v, want 0", got)
	}
	s.DiffWall = 2 * time.Second
	if got := s.NodesPerSecond(); got != 5000 {
		t.Errorf("NodesPerSecond = %v, want 5000", got)
	}
}

// TestSnapshotStringGolden pins the String format: it is a pure function
// of the snapshot's fields, so reports over fixed-value snapshots can be
// golden-tested by downstream tooling.
func TestSnapshotStringGolden(t *testing.T) {
	s := Snapshot{
		Diffs: 10, Errors: 1, SlowDiffs: 3, Batches: 2, Edits: 40,
		Panics: 1, Timeouts: 2, Fallbacks: 3,
		SourceNodes: 1000, TargetNodes: 1100, DiffWall: 2100 * time.Millisecond,
		PoolGets: 10, PoolMisses: 2, PoolHitRate: 0.8,
		QueueDepth: 2, WorkerCapacity: 4200 * time.Millisecond, Utilization: 0.5,
	}
	want := "diffs 10 (1 errors, 2 batches), 40 edits, 1000+1100 nodes in 2.1s (1000 nodes/s)\n" +
		"resilience: 1 panics, 2 timeouts, 3 fallbacks\n" +
		"workers: 50.0% utilized over 4.2s capacity, queue depth 2\n" +
		"scratch pool: 10 gets, 2 misses (80.0% hit)"
	if got := s.String(); got != want {
		t.Errorf("String mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// eventLog collects DiffEvents from concurrent workers.
type eventLog struct {
	mu     sync.Mutex
	events []DiffEvent
}

func (l *eventLog) add(ev DiffEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) all() []DiffEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]DiffEvent(nil), l.events...)
}

// TestObserverSeesEveryDiff: the observer fires once per pair — with the
// pair's label, full phase breakdown, and edit count — across concurrent
// workers.
func TestObserverSeesEveryDiff(t *testing.T) {
	tps := makePairs(t, 12)
	pairs := enginePairs(tps)
	for i := range pairs {
		pairs[i].Label = "pair-" + string(rune('a'+i))
	}
	var log eventLog
	e := New(exp.Schema(), Config{Workers: 4, Observer: log.add})
	results, err := e.DiffBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	events := log.all()
	if len(events) != len(pairs) {
		t.Fatalf("observer saw %d events, want %d", len(events), len(pairs))
	}
	byLabel := make(map[string]DiffEvent, len(events))
	for _, ev := range events {
		byLabel[ev.Label] = ev
	}
	for i, p := range pairs {
		ev, ok := byLabel[p.Label]
		if !ok {
			t.Fatalf("no event for %s", p.Label)
		}
		if ev.Err != nil {
			t.Errorf("%s: unexpected error %v", p.Label, ev.Err)
		}
		if ev.Stats.SourceSize != p.Source.Size() || ev.Stats.TargetSize != p.Target.Size() {
			t.Errorf("%s: sizes %d/%d, want %d/%d", p.Label,
				ev.Stats.SourceSize, ev.Stats.TargetSize, p.Source.Size(), p.Target.Size())
		}
		if ev.Stats.Edits != results[i].Result.Script.EditCount() {
			t.Errorf("%s: edits %d, want %d", p.Label, ev.Stats.Edits, results[i].Result.Script.EditCount())
		}
		if ev.Stats.Phases.Total() == 0 || ev.Stats.Phases.Total() > ev.Stats.Wall {
			t.Errorf("%s: phase total %v out of (0, wall %v]", p.Label, ev.Stats.Phases.Total(), ev.Stats.Wall)
		}
	}

	// The events convert losslessly into trace records.
	rec := events[0].TraceRecord()
	if rec.Pair != events[0].Label || rec.WallNS != events[0].Stats.Wall.Nanoseconds() ||
		rec.SharesNS != events[0].Stats.Phases[telemetry.PhaseShares].Nanoseconds() {
		t.Errorf("TraceRecord mismatch: %+v vs %+v", rec, events[0])
	}
}

// TestSlowDiffLogging: with a 1ns threshold every real diff is slow — the
// logger receives one "slow diff" record each and SlowDiffs counts them —
// while an identical short-circuited pair (wall 0) is never slow.
func TestSlowDiffLogging(t *testing.T) {
	tps := makePairs(t, 6)
	var buf bytes.Buffer
	e := New(exp.Schema(), Config{
		Workers:           2,
		SlowDiffThreshold: time.Nanosecond,
		Logger:            slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if got := strings.Count(buf.String(), `msg="slow diff"`); got != len(tps) {
		t.Fatalf("logger saw %d slow-diff records, want %d:\n%s", got, len(tps), buf.String())
	}
	if s := e.Snapshot(); s.SlowDiffs != uint64(len(tps)) {
		t.Fatalf("SlowDiffs = %d, want %d", s.SlowDiffs, len(tps))
	}

	// Identical pair: served in zero wall time, so not slow.
	g := exp.NewGen(99)
	x := tree.Clone(g.Tree(50), uri.NewAllocator(), tree.SHA256)
	before := e.Snapshot()
	if _, err := e.DiffBatch(context.Background(), []Pair{{Source: x, Target: x}}); err != nil {
		t.Fatalf("identical batch: %v", err)
	}
	if d := e.Snapshot().Sub(before); d.SlowDiffs != 0 {
		t.Fatalf("identical pair counted as slow: %+v", d)
	}
}

// TestIdenticalPairTelemetry: a short-circuited pair lands in the latency
// and size histograms but not in the phase histograms, and its observer
// event is flagged Identical.
func TestIdenticalPairTelemetry(t *testing.T) {
	var log eventLog
	e := New(exp.Schema(), Config{Workers: 1, Observer: log.add})
	g := exp.NewGen(3)
	x := tree.Clone(g.Tree(40), uri.NewAllocator(), tree.SHA256)
	if _, err := e.DiffBatch(context.Background(), []Pair{{Source: x, Target: x, Label: "same"}}); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	events := log.all()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if !ev.Stats.Identical {
		t.Errorf("flags wrong: %+v", ev.Stats)
	}
	var byName = map[string][]telemetry.Metric{}
	for _, m := range e.GatherMetrics() {
		byName[m.Name] = append(byName[m.Name], m)
	}
	if got := byName["structdiff_diff_duration_seconds"][0].Hist.Count; got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
	phases := byName["structdiff_phase_duration_seconds"]
	if len(phases) != telemetry.NumPhases {
		t.Fatalf("phase family has %d members, want %d", len(phases), telemetry.NumPhases)
	}
	for p, m := range phases {
		if got := m.Hist.Count; got != 0 {
			t.Errorf("phase %v count = %d, want 0 (no algorithm ran)", telemetry.Phase(p), got)
		}
	}
}

// TestGatherMetrics: the exposition agrees with the snapshot and feeds
// phase-labelled histograms whose per-phase counts equal the diff count.
func TestGatherMetrics(t *testing.T) {
	tps := makePairs(t, 8)
	e := New(exp.Schema(), Config{Workers: 4})
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	s := e.Snapshot()

	var byName = map[string][]telemetry.Metric{}
	for _, m := range e.GatherMetrics() {
		byName[m.Name] = append(byName[m.Name], m)
	}
	if got := byName["structdiff_diffs_total"][0].Value; got != float64(s.Diffs) {
		t.Errorf("structdiff_diffs_total = %v, want %d", got, s.Diffs)
	}
	if got := byName["structdiff_edits_total"][0].Value; got != float64(s.Edits) {
		t.Errorf("structdiff_edits_total = %v, want %d", got, s.Edits)
	}
	phases := byName["structdiff_phase_duration_seconds"]
	if len(phases) != telemetry.NumPhases {
		t.Fatalf("phase family has %d members, want %d", len(phases), telemetry.NumPhases)
	}
	for i, m := range phases {
		if want := telemetry.Phase(i).String(); len(m.Labels) != 1 || m.Labels[0] != (telemetry.Label{Key: "phase", Value: want}) {
			t.Errorf("phase %d labels = %v, want phase=%s", i, m.Labels, want)
		}
		if m.Hist.Count != s.Diffs {
			t.Errorf("phase %d histogram count = %d, want %d", i, m.Hist.Count, s.Diffs)
		}
	}
	if got := byName["structdiff_diff_duration_seconds"][0].Hist.Count; got != s.Diffs {
		t.Errorf("latency histogram count = %d, want %d", got, s.Diffs)
	}
	if got := byName["structdiff_tree_nodes"][0].Hist.Count; got != 2*s.Diffs {
		t.Errorf("tree size histogram count = %d, want %d", got, 2*s.Diffs)
	}

	// The whole set renders as valid Prometheus text with the headline
	// series present.
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, e.GatherMetrics()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, needle := range []string{
		"# TYPE structdiff_diffs_total counter",
		"# TYPE structdiff_diff_duration_seconds histogram",
		`structdiff_phase_duration_seconds_bucket{phase="shares",le="+Inf"} ` +
			"8",
		"structdiff_pool_gets_total",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("exposition missing %q:\n%.2000s", needle, out)
		}
	}
}

// TestUtilizationView exercises the engine's worker-utilization counters:
// after a real batch, worker capacity covers at least the summed diff
// wall time divided by the worker count, utilization lands in (0, 1], and
// the queue-depth gauge returns to zero.
func TestUtilizationView(t *testing.T) {
	tps := makePairs(t, 12)
	e := New(exp.Schema(), Config{Workers: 3})
	before := e.Snapshot()
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	d := e.Snapshot().Sub(before)

	if d.WorkerCapacity <= 0 {
		t.Fatalf("WorkerCapacity = %v, want > 0", d.WorkerCapacity)
	}
	if d.WorkerCapacity < d.DiffWall/3 {
		t.Errorf("WorkerCapacity %v < DiffWall/3 %v: capacity must cover the batch", d.WorkerCapacity, d.DiffWall/3)
	}
	if d.Utilization <= 0 || d.Utilization > 1.000001 {
		t.Errorf("Utilization = %v, want in (0, 1]", d.Utilization)
	}
	if d.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after batch, want 0", d.QueueDepth)
	}
}

// TestGatherMetricsUtilizationAndBuildInfo asserts the new exposition
// families appear with the right types and sane values.
func TestGatherMetricsUtilizationAndBuildInfo(t *testing.T) {
	tps := makePairs(t, 6)
	e := New(exp.Schema(), Config{Workers: 2})
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, e.GatherMetrics()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, needle := range []string{
		"# TYPE structdiff_build_info gauge",
		`structdiff_build_info{version=`,
		`go_version="`,
		`vcs_revision="`,
		"# TYPE structdiff_engine_queue_depth gauge",
		"structdiff_engine_queue_depth 0",
		"# TYPE structdiff_engine_worker_capacity_seconds_total counter",
		"# TYPE structdiff_engine_utilization_ratio gauge",
		"# TYPE structdiff_pool_hit_ratio gauge",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}

	// The build-info gauge must be a single constant-1 sample.
	bi := telemetry.BuildInfoMetric()
	if bi.Value != 1 || bi.Kind != telemetry.KindGauge {
		t.Errorf("BuildInfoMetric = kind %v value %v, want gauge 1", bi.Kind, bi.Value)
	}
	keys := map[string]bool{}
	for _, l := range bi.Labels {
		keys[l.Key] = true
		if l.Value == "" {
			t.Errorf("build info label %q is empty", l.Key)
		}
	}
	for _, k := range []string{"version", "go_version", "vcs_revision"} {
		if !keys[k] {
			t.Errorf("build info missing label %q", k)
		}
	}
}
