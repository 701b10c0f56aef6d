package structdiff_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
	"time"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// TestDiffContextSpans: a facade diff under WithSpans records one
// structdiff.diff span with the four truediff phases nested under it,
// joined to the trace carried on the context.
func TestDiffContextSpans(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	rec := structdiff.NewSpanRecorder()
	parent := structdiff.NewSpanContext()
	ctx := structdiff.WithTraceContext(context.Background(), parent)
	if _, err := structdiff.DiffContext(ctx, src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc),
		structdiff.WithSpans(rec)); err != nil {
		t.Fatalf("DiffContext: %v", err)
	}

	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5 (structdiff.diff + 4 phases)", len(spans))
	}
	var root *structdiff.Span
	for i := range spans {
		if spans[i].Name == "structdiff.diff" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no structdiff.diff span")
	}
	if root.Trace != parent.Trace || root.Parent != parent.Span {
		t.Errorf("root span trace/parent = %s/%s, want context's %s/%s",
			root.Trace, root.Parent, parent.Trace, parent.Span)
	}
	for _, s := range spans {
		if s.Name == "structdiff.diff" {
			continue
		}
		if s.Trace != parent.Trace || s.Parent != root.ID {
			t.Errorf("phase %s trace/parent = %s/%s, want %s/%s",
				s.Name, s.Trace, s.Parent, parent.Trace, root.ID)
		}
	}
}

// TestDiffContextNoSpansNoTrace: without WithSpans the facade records
// nothing — the off path stays untraced.
func TestDiffContextNoSpansNoTrace(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	if _, err := structdiff.DiffContext(context.Background(), src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc)); err != nil {
		t.Fatalf("DiffContext: %v", err)
	}
}

// TestEngineFacadeObservability: the facade's WithSpans, WithLogger and
// WithSlowDiffThreshold options reach the engine.
func TestEngineFacadeObservability(t *testing.T) {
	g := exp.NewGen(7)
	before := g.Tree(40)
	after := g.MutateN(before, 2)
	rec := structdiff.NewSpanRecorder()
	var logs bytes.Buffer
	e, err := structdiff.NewEngine(g.Schema(),
		structdiff.WithWorkers(1), structdiff.WithSpans(rec),
		structdiff.WithLogger(slog.New(slog.NewJSONHandler(&logs, nil))),
		structdiff.WithSlowDiffThreshold(time.Nanosecond)) // every real diff is slow
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	res, err := e.DiffBatch(context.Background(), []structdiff.Pair{
		{Source: before, Target: after, Label: "facade"},
	})
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("pair failed: %v", res[0].Err)
	}
	if got := len(rec.Spans()); got != 5 {
		t.Fatalf("engine recorded %d spans, want 5", got)
	}
	if snap := e.Snapshot(); snap.SLO.Requests != 1 {
		t.Errorf("SLO window counted %d requests, want 1", snap.SLO.Requests)
	}
	var slow []map[string]any
	dec := json.NewDecoder(&logs)
	for dec.More() {
		var r map[string]any
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("log output is not JSON lines: %v", err)
		}
		if r["msg"] == "slow diff" {
			slow = append(slow, r)
		}
	}
	if len(slow) != 1 || slow[0]["pair"] != "facade" {
		t.Fatalf("slow-diff records = %v, want one for pair \"facade\"", slow)
	}
}
