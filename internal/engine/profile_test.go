package engine

import (
	"context"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/truediff"
)

// TestBatchLabelsNestWorkerPairPhase runs a labeled batch and asserts,
// via the differ's phase hook, that every phase body executes under the
// full label stack: worker index, pair label, and phase name.
func TestBatchLabelsNestWorkerPairPhase(t *testing.T) {
	tps := makePairs(t, 8)
	pairs := enginePairs(tps)
	for i := range pairs {
		pairs[i].Label = "pair-" + string(rune('a'+i))
	}

	var mu sync.Mutex
	workers := map[string]bool{}
	pairSeen := map[string]int{}
	phases := map[string]int{}
	truediff.ProfilePhaseHook = func(ctx context.Context, p telemetry.Phase) {
		mu.Lock()
		defer mu.Unlock()
		if v, ok := pprof.Label(ctx, PprofWorkerLabel); ok {
			workers[v] = true
		} else {
			t.Errorf("phase %v: no %q label", p, PprofWorkerLabel)
		}
		if v, ok := pprof.Label(ctx, PprofPairLabel); ok {
			pairSeen[v]++
		} else {
			t.Errorf("phase %v: no %q label", p, PprofPairLabel)
		}
		if v, ok := pprof.Label(ctx, truediff.PprofPhaseLabel); ok {
			phases[v]++
		} else {
			t.Errorf("phase %v: no %q label", p, truediff.PprofPhaseLabel)
		}
	}
	defer func() { truediff.ProfilePhaseHook = nil }()

	e := New(exp.Schema(), Config{Workers: 2, Diff: truediff.Options{ProfileLabels: true}})
	results, err := e.DiffBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("pair %d: %v", i, results[i].Err)
		}
	}

	if len(workers) == 0 {
		t.Fatal("no worker labels observed")
	}
	for w := range workers {
		if w != "0" && w != "1" {
			t.Errorf("unexpected worker label %q (want 0 or 1)", w)
		}
	}
	for i := range pairs {
		if got := pairSeen[pairs[i].Label]; got != telemetry.NumPhases {
			t.Errorf("pair %q labeled %d phase bodies, want %d", pairs[i].Label, got, telemetry.NumPhases)
		}
	}
	for p := 0; p < telemetry.NumPhases; p++ {
		name := telemetry.Phase(p).String()
		if phases[name] != len(pairs) {
			t.Errorf("phase %q labeled %d times, want %d", name, phases[name], len(pairs))
		}
	}
}

// TestBatchWithoutProfileLabelsStaysUnlabeled pins the default: no hook
// invocations, no label machinery.
func TestBatchWithoutProfileLabelsStaysUnlabeled(t *testing.T) {
	calls := 0
	truediff.ProfilePhaseHook = func(context.Context, telemetry.Phase) { calls++ }
	defer func() { truediff.ProfilePhaseHook = nil }()

	tps := makePairs(t, 4)
	e := New(exp.Schema(), Config{Workers: 2})
	if _, err := e.DiffBatch(context.Background(), enginePairs(tps)); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if calls != 0 {
		t.Fatalf("default batch entered labeled phases %d times, want 0", calls)
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
