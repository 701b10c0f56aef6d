package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatalf("NewSpanContext returned invalid context %+v", sc)
	}
	h := sc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("Traceparent() = %q, want 55 chars, got %d", h, len(h))
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestNewSpanContextUnique(t *testing.T) {
	a, b := NewSpanContext(), NewSpanContext()
	if a.Trace == b.Trace {
		t.Fatalf("two fresh contexts share a trace ID %s", a.Trace)
	}
}

func TestParseTraceparentErrors(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	cases := []struct {
		name, h string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"bad separators", "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01"},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"v00 with trailing data", valid + "-extra"},
		{"non-hex trace", "00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"non-hex parent", "00-0af7651916cd43dd8448eb211c80319c-z7ad6b7169203331-01"},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz"},
		{"zero trace", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero parent", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
	}
	for _, c := range cases {
		sc, err := ParseTraceparent(c.h)
		if err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, got %+v", c.name, c.h, sc)
		}
		if sc.Valid() {
			t.Errorf("%s: error path returned a valid context", c.name)
		}
	}
	// A future version may carry extra data after the flags.
	future := "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-whatever"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("future-version header with suffix rejected: %v", err)
	}
}

func TestSpanNilSafety(t *testing.T) {
	s := StartSpan(nil, SpanContext{}, "noop")
	if s != nil {
		t.Fatalf("StartSpan with nil sink returned non-nil span")
	}
	// None of these may panic.
	s.SetAttr("k", 1)
	s.End()
	s.EndAt(time.Now())
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span Duration = %v, want 0", d)
	}
	if sc := s.Context(); sc.Valid() {
		t.Errorf("nil span Context is valid: %+v", sc)
	}
}

func TestSpanLifecycle(t *testing.T) {
	rec := NewSpanRecorder()
	root := StartSpan(rec, SpanContext{}, "root")
	if root == nil {
		t.Fatal("StartSpan returned nil with a live sink")
	}
	if root.Trace.IsZero() || root.ID.IsZero() {
		t.Fatalf("root span has zero IDs: %+v", root)
	}
	if !root.Parent.IsZero() {
		t.Fatalf("root span has a parent: %s", root.Parent)
	}
	child := StartSpan(rec, root.Context(), "child")
	child.SetAttr("edits", 3)
	child.End()
	child.SetAttr("late", true) // after End: dropped
	child.End()                 // double End: no second delivery
	root.End()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("completion order: got %q, %q", c.Name, r.Name)
	}
	if c.Trace != r.Trace {
		t.Errorf("child trace %s != root trace %s", c.Trace, r.Trace)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent %s != root span %s", c.Parent, r.ID)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "edits" {
		t.Errorf("child attrs = %+v, want one attr 'edits'", c.Attrs)
	}
	if c.Duration() < 0 {
		t.Errorf("negative duration %v", c.Duration())
	}

	rec.Reset()
	if n := len(rec.Spans()); n != 0 {
		t.Fatalf("Reset left %d spans", n)
	}
}

func TestSpanJSONIDs(t *testing.T) {
	rec := NewSpanRecorder()
	s := StartSpan(rec, SpanContext{}, "x")
	s.End()
	b, err := json.Marshal(rec.Spans()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"trace_id":"`+s.Trace.String()+`"`) {
		t.Errorf("span JSON does not carry hex trace id: %s", b)
	}
}

func TestPhaseSpans(t *testing.T) {
	rec := NewSpanRecorder()
	parent := NewSpanContext()
	tr := PhaseSpans(rec, parent)
	tr.Phase(PhasePrepare, 5*time.Millisecond)
	tr.Phase(PhaseEmit, 2*time.Millisecond)

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "truediff.prepare" || spans[1].Name != "truediff.emit" {
		t.Fatalf("span names = %q, %q", spans[0].Name, spans[1].Name)
	}
	for _, s := range spans {
		if s.Trace != parent.Trace || s.Parent != parent.Span {
			t.Errorf("span %q not parented under the diff span: %+v", s.Name, s)
		}
	}
	if d := spans[0].Duration(); d != 5*time.Millisecond {
		t.Errorf("prepare span duration = %v, want 5ms (back-dated)", d)
	}
}

func TestContextPropagation(t *testing.T) {
	if TracerFromContext(nil) != nil {
		t.Error("TracerFromContext(nil) != nil")
	}
	if sc := SpanContextFromContext(nil); sc.Valid() {
		t.Error("SpanContextFromContext(nil) is valid")
	}
	ctx := context.Background()
	if TracerFromContext(ctx) != nil || SpanContextFromContext(ctx).Valid() {
		t.Error("empty context carries trace state")
	}
	tr := PhaseSpans(NewSpanRecorder(), NewSpanContext())
	sc := NewSpanContext()
	ctx = ContextWithTracer(ctx, tr)
	ctx = ContextWithSpanContext(ctx, sc)
	if got := TracerFromContext(ctx); got == nil {
		t.Error("tracer lost in context")
	}
	if got := SpanContextFromContext(ctx); got != sc {
		t.Errorf("span context: got %+v, want %+v", got, sc)
	}
}

func TestSpanContextSlogAttrs(t *testing.T) {
	if attrs := (SpanContext{}).SlogAttrs(); attrs != nil {
		t.Fatalf("zero context SlogAttrs = %v, want nil", attrs)
	}
	sc := NewSpanContext()
	attrs := sc.SlogAttrs()
	if len(attrs) != 2 || attrs[0].Key != "trace_id" || attrs[1].Key != "span_id" {
		t.Fatalf("SlogAttrs = %v", attrs)
	}
	if attrs[0].Value.String() != sc.Trace.String() {
		t.Errorf("trace_id attr = %s, want %s", attrs[0].Value.String(), sc.Trace)
	}
}
