package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/uri"
)

// TestEngineExplainAndQuality: with Config.Explain on, every successful
// PairResult carries provenance aligned with its script, DiffStats report
// the conciseness metrics, and the snapshot and exposition surface the
// aggregates.
func TestEngineExplainAndQuality(t *testing.T) {
	tps := makePairs(t, 8)
	var log eventLog
	e := New(exp.Schema(), Config{
		Workers: 4, Explain: true, Observer: log.add,
	})
	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair %d: %v", i, pr.Err)
		}
		if pr.Explain == nil {
			t.Fatalf("pair %d: no explanation attached", i)
		}
		if got, want := len(pr.Explain.Edits), pr.Result.Script.Len(); got != want {
			t.Fatalf("pair %d: %d provenance records for %d edits", i, got, want)
		}
		for _, p := range pr.Explain.Edits {
			if p.Op == "" || p.Reason == "" {
				t.Fatalf("pair %d: unpopulated provenance: %+v", i, p)
			}
		}
		st := pr.Stats
		if st.ReuseRatio < 0 || st.ReuseRatio > 1 {
			t.Fatalf("pair %d: reuse ratio %v out of range", i, st.ReuseRatio)
		}
		if st.Edits > 0 && (st.ChangedNodes <= 0 || st.EditsPerChangedNode <= 0) {
			t.Fatalf("pair %d: quality stats unpopulated: %+v", i, st)
		}
	}

	s := e.Snapshot()
	if s.ChangedNodes == 0 {
		t.Fatalf("snapshot quality counters: %+v", s)
	}
	if !strings.Contains(s.String(), "quality:") {
		t.Fatalf("Snapshot.String lacks quality line:\n%s", s)
	}

	names := map[string]bool{}
	for _, m := range e.GatherMetrics() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"structdiff_quality_reuse_ratio",
		"structdiff_quality_edits_per_changed_node",
		"structdiff_quality_script_tree_ratio",
		"structdiff_quality_changed_nodes_total",
	} {
		if !names[want] {
			t.Errorf("GatherMetrics lacks %s", want)
		}
	}

	// The observer's trace records carry the same quality fields.
	for _, ev := range log.all() {
		rec := ev.TraceRecord()
		if rec.ReuseRatio != ev.Stats.ReuseRatio || rec.ChangedNodes != ev.Stats.ChangedNodes ||
			rec.EditsPerNode != ev.Stats.EditsPerChangedNode || rec.ScriptRatio != ev.Stats.ScriptTreeRatio {
			t.Fatalf("trace record drops quality fields: %+v vs %+v", rec, ev.Stats)
		}
	}
}

// TestEngineExplainIdenticalPair: the identical-pair short circuit
// still delivers a (trivially empty) explanation and trivially concise
// quality stats.
func TestEngineExplainIdenticalPair(t *testing.T) {
	e := New(exp.Schema(), Config{Workers: 1, Explain: true})
	g := exp.NewGen(3)
	x := tree.Clone(g.Tree(40), uri.NewAllocator(), tree.SHA256)
	results, err := e.DiffBatch(context.Background(), []Pair{{Source: x, Target: x}})
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	pr := results[0]
	if pr.Explain == nil || len(pr.Explain.Edits) != 0 {
		t.Fatalf("identical pair explanation: %+v", pr.Explain)
	}
	if pr.Stats.ReuseRatio != 1 || pr.Stats.ChangedNodes != 0 || pr.Stats.Edits != 0 {
		t.Fatalf("identical pair quality stats: %+v", pr.Stats)
	}
}

// TestEngineExplainOffByDefault: without Config.Explain no explanation is
// allocated or attached.
func TestEngineExplainOffByDefault(t *testing.T) {
	tps := makePairs(t, 2)
	e := New(exp.Schema(), Config{Workers: 1})
	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	for i, pr := range results {
		if pr.Explain != nil {
			t.Fatalf("pair %d: explanation attached with Explain off", i)
		}
	}
}

// TestEngineExplainDeterministicAcrossConfigs: the same pairs diffed by a
// single-worker and an eight-worker engine produce byte-identical
// provenance — worker scheduling must not leak into explanations.
func TestEngineExplainDeterministicAcrossConfigs(t *testing.T) {
	marshal := func(workers int) [][]byte {
		// makePairs is seed-deterministic: each call rebuilds identical
		// trees on fresh caller-owned allocators, so load URIs line up.
		pairs := enginePairs(makePairs(t, 10))
		e := New(exp.Schema(), Config{Workers: workers, Explain: true})
		results, err := e.DiffBatch(context.Background(), pairs)
		if err != nil {
			t.Fatalf("DiffBatch(workers=%d): %v", workers, err)
		}
		out := make([][]byte, len(results))
		for i, pr := range results {
			if pr.Err != nil {
				t.Fatalf("workers=%d pair %d: %v", workers, i, pr.Err)
			}
			buf, err := json.Marshal(pr.Explain)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = buf
		}
		return out
	}
	w1, w8 := marshal(1), marshal(8)
	for i := range w1 {
		if string(w1[i]) != string(w8[i]) {
			t.Fatalf("pair %d provenance differs across worker counts:\n%s\nvs\n%s", i, w1[i], w8[i])
		}
	}
}

// TestEngineHostileLabelSanitized: a caller-supplied label full of control
// characters and padding is bounded and neutralized before it reaches the
// observer, trace records, and every other observability surface.
func TestEngineHostileLabelSanitized(t *testing.T) {
	hostile := "evil\npair\x1b[2Jwith\r\nnewlines" + strings.Repeat("A", 4096)
	tps := makePairs(t, 1)
	pair := tps[0].pair
	pair.Label = hostile
	var log eventLog
	e := New(exp.Schema(), Config{Workers: 1, Observer: log.add})
	if _, err := e.DiffBatch(context.Background(), []Pair{pair}); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	events := log.all()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	got := events[0].Label
	if got != telemetry.SanitizeLabel(hostile) {
		t.Fatalf("label not sanitized: %q", got)
	}
	if len(got) > telemetry.MaxLabelLen+len("…") {
		t.Fatalf("label is %d bytes, cap %d", len(got), telemetry.MaxLabelLen)
	}
	if strings.ContainsAny(got, "\n\r\x1b") {
		t.Fatalf("label retains control characters: %q", got)
	}
	if rec := events[0].TraceRecord(); strings.ContainsAny(rec.Pair, "\n\r\x1b") {
		t.Fatalf("trace record retains control characters: %q", rec.Pair)
	}
}
