package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// TestEngineExplainAndQuality: with Config.Explain on, every successful
// PairResult carries provenance aligned with its script, DiffStats count
// the script's conciseness as truechange.ComputeStats does, and the
// exposition and trace records carry the reuse ratio.
func TestEngineExplainAndQuality(t *testing.T) {
	tps := makePairs(t, 8)
	var log eventLog
	e := New(exp.Schema(), Config{Explain: true, Observer: log.add})
	results := diffConcurrently(context.Background(), e, enginePairs(tps))
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
		cs := truechange.ComputeStats(pr.Result.Script)
		if st.Edits != cs.Compound {
			t.Fatalf("pair %d: Edits = %d, ComputeStats.Compound = %d", i, st.Edits, cs.Compound)
		}
		if want := float64(st.TargetSize-cs.Loads) / float64(st.TargetSize); st.ReuseRatio != want {
			t.Fatalf("pair %d: ReuseRatio = %v, want (%d - %d loads) / %d = %v",
				i, st.ReuseRatio, st.TargetSize, cs.Loads, st.TargetSize, want)
		}
	}

	names := map[string]bool{}
	for _, m := range e.GatherMetrics() {
		names[m.Name] = true
	}
	if !names["structdiff_quality_reuse_ratio"] {
		t.Error("GatherMetrics lacks structdiff_quality_reuse_ratio")
	}

	// The observer's trace records carry the same reuse ratio.
	for _, ev := range log.all() {
		if rec := ev.TraceRecord(); rec.ReuseRatio != ev.Stats.ReuseRatio {
			t.Fatalf("trace record reuse ratio %v, stats %v", rec.ReuseRatio, ev.Stats.ReuseRatio)
		}
	}
}

// TestEngineExplainIdenticalPair: the identical-pair short circuit
// still delivers a (trivially empty) explanation, no edits and reuse
// ratio 1.
func TestEngineExplainIdenticalPair(t *testing.T) {
	e := New(exp.Schema(), Config{Explain: true})
	g := exp.NewGen(3)
	x := tree.Clone(g.Tree(40), uri.NewAllocator(), tree.SHA256)
	pr := e.DiffPair(context.Background(), Pair{Source: x, Target: x})
	if pr.Explain == nil || len(pr.Explain.Edits) != 0 {
		t.Fatalf("identical pair explanation: %+v", pr.Explain)
	}
	if pr.Stats.ReuseRatio != 1 || pr.Stats.Edits != 0 {
		t.Fatalf("identical pair stats: %+v", pr.Stats)
	}
}

// TestEngineContentIdenticalPair: two content-identical trees that share
// no node take the full diff path, not the identical short circuit, and
// still get no edits and reuse ratio 1.
func TestEngineContentIdenticalPair(t *testing.T) {
	// Two generators with the same seed build equal trees from separate
	// nodes.
	src, dst := exp.NewGen(13).Tree(30), exp.NewGen(13).Tree(30)
	e := New(exp.Schema(), Config{})
	pr := e.DiffPair(context.Background(), Pair{Source: src, Target: dst})
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	if st := pr.Stats; st.Identical || st.Edits != 0 || st.ReuseRatio != 1 {
		t.Fatalf("content-identical pair stats: %+v", st)
	}
}

// TestEngineExplainOffByDefault: without Config.Explain no explanation is
// allocated or attached.
func TestEngineExplainOffByDefault(t *testing.T) {
	tps := makePairs(t, 2)
	e := New(exp.Schema(), Config{})
	for i, pr := range diffEach(context.Background(), e, enginePairs(tps)) {
		if pr.Explain != nil {
			t.Fatalf("pair %d: explanation attached with Explain off", i)
		}
	}
}

// TestEngineExplainDeterministicAcrossConfigs: the same pairs diffed one
// at a time and all at once, each on a fresh engine, produce
// byte-identical provenance — scheduling must not leak into explanations.
func TestEngineExplainDeterministicAcrossConfigs(t *testing.T) {
	marshal := func(run func(context.Context, *Engine, []Pair) []PairResult) [][]byte {
		// makePairs is seed-deterministic: each call rebuilds identical
		// trees on fresh caller-owned allocators, so load URIs line up.
		pairs := enginePairs(makePairs(t, 10))
		e := New(exp.Schema(), Config{Explain: true})
		results := run(context.Background(), e, pairs)
		out := make([][]byte, len(results))
		for i, pr := range results {
			if pr.Err != nil {
				t.Fatalf("pair %d: %v", i, pr.Err)
			}
			buf, err := json.Marshal(pr.Explain)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = buf
		}
		return out
	}
	seq, par := marshal(diffEach), marshal(diffConcurrently)
	for i := range seq {
		if string(seq[i]) != string(par[i]) {
			t.Fatalf("pair %d provenance differs between sequential and concurrent calls:\n%s\nvs\n%s", i, seq[i], par[i])
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
	e := New(exp.Schema(), Config{Observer: log.add})
	if pr := e.DiffPair(context.Background(), pair); pr.Err != nil {
		t.Fatalf("DiffPair: %v", pr.Err)
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
