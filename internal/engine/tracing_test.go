package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

// TestEngineSpans: with Config.Spans set, every pair yields one
// "engine.diff" span parented on its context's trace context plus the four
// phase spans parented on the engine span, all sharing that trace ID. Each
// pair runs under a context of its own.
func TestEngineSpans(t *testing.T) {
	tps := makePairs(t, 3)
	pairs := enginePairs(tps)
	traces := make([]telemetry.SpanContext, len(pairs))
	rec := telemetry.NewSpanRecorder()
	var events eventLog
	e := New(exp.Schema(), Config{Spans: rec, Observer: events.add})
	for i := range pairs {
		traces[i] = telemetry.NewSpanContext()
		pairs[i].Label = "pair-" + string(rune('a'+i))
		ctx := telemetry.ContextWithSpanContext(context.Background(), traces[i])
		if pr := e.DiffPair(ctx, pairs[i]); pr.Err != nil {
			t.Fatalf("DiffPair: %v", pr.Err)
		}
	}

	spans := rec.Spans()
	byTrace := make(map[telemetry.TraceID][]telemetry.Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for i, tc := range traces {
		got := byTrace[tc.Trace]
		if len(got) != 5 {
			t.Fatalf("pair %d: %d spans in its trace, want 5 (engine.diff + 4 phases)", i, len(got))
		}
		var eng *telemetry.Span
		phases := map[string]telemetry.Span{}
		for j := range got {
			if got[j].Name == "engine.diff" {
				eng = &got[j]
			} else {
				phases[got[j].Name] = got[j]
			}
		}
		if eng == nil {
			t.Fatalf("pair %d: no engine.diff span", i)
		}
		if eng.Parent != tc.Span {
			t.Errorf("pair %d: engine.diff parent %s, want request span %s", i, eng.Parent, tc.Span)
		}
		for _, name := range []string{"truediff.prepare", "truediff.shares", "truediff.select", "truediff.emit"} {
			ph, ok := phases[name]
			if !ok {
				t.Errorf("pair %d: missing phase span %s", i, name)
				continue
			}
			if ph.Parent != eng.ID {
				t.Errorf("pair %d: %s parented on %s, want engine span %s", i, name, ph.Parent, eng.ID)
			}
		}
	}

	// Observer events carry the engine span's context, so trace records
	// correlate with the spans.
	for _, ev := range events.all() {
		if !ev.Trace.Valid() {
			t.Fatalf("event %q has no trace context", ev.Label)
		}
		rec := ev.TraceRecord()
		if rec.TraceID == "" || rec.SpanID == "" {
			t.Fatalf("trace record for %q missing correlation IDs: %+v", ev.Label, rec)
		}
	}
}

// TestEngineSpansOffNoTrace: without a sink no spans appear and events
// still carry their context's (possibly invalid) trace context unchanged.
func TestEngineSpansOffNoTrace(t *testing.T) {
	tps := makePairs(t, 1)
	var events eventLog
	e := New(exp.Schema(), Config{Observer: events.add})
	if pr := e.DiffPair(context.Background(), tps[0].pair); pr.Err != nil {
		t.Fatalf("DiffPair: %v", pr.Err)
	}
	evs := events.all()
	if len(evs) != 1 || evs[0].Trace.Valid() {
		t.Fatalf("events = %+v, want one with zero trace", evs)
	}
	if rec := evs[0].TraceRecord(); rec.TraceID != "" || rec.SpanID != "" {
		t.Fatalf("trace record carries IDs without tracing: %+v", rec)
	}
}

// TestEngineStructuredLogging: failures and slow diffs emit slog records
// carrying pair and trace correlation.
func TestEngineStructuredLogging(t *testing.T) {
	tps := makePairs(t, 1)
	pairs := enginePairs(tps)
	tc := telemetry.NewSpanContext()
	pairs[0].Label = "slow-one"
	pairs = append(pairs, Pair{Source: nil, Target: nil, Label: "broken"})

	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	e := New(exp.Schema(), Config{
		Logger:            logger,
		SlowDiffThreshold: time.Nanosecond, // every real diff is slow
	})
	diffEach(telemetry.ContextWithSpanContext(context.Background(), tc), e, pairs)

	var sawSlow, sawFailed bool
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("log output is not JSON lines: %v", err)
		}
		switch rec["msg"] {
		case "slow diff":
			sawSlow = true
			if rec["pair"] != "slow-one" {
				t.Errorf("slow record pair = %v", rec["pair"])
			}
			if rec["trace_id"] != tc.Trace.String() {
				t.Errorf("slow record trace_id = %v, want %v", rec["trace_id"], tc.Trace)
			}
			if rec["level"] != "WARN" {
				t.Errorf("slow record level = %v", rec["level"])
			}
		case "diff failed":
			sawFailed = true
			if rec["level"] != "ERROR" || rec["err"] == "" {
				t.Errorf("failure record = %v", rec)
			}
		}
	}
	if !sawSlow || !sawFailed {
		t.Fatalf("sawSlow=%v sawFailed=%v, want both", sawSlow, sawFailed)
	}
}
