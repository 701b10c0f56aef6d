package telemetry

import (
	"context"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
)

// This file is the distributed-tracing layer: a lightweight, stdlib-only
// span model with W3C traceparent propagation. One trace follows a diff
// request across processes — structdiff.ServiceClient injects the header,
// diffserve extracts and continues the trace, and spans nest through the
// service's wait for a worker slot, the engine diff, and the four truediff
// phases (the phase spans are synthesized from the Tracer contract, see
// PhaseSpans) — so client-observed latency decomposes into queue wait,
// worker execution, and phase times.
//
// The design is allocation-light and off-by-default: StartSpan with a nil
// sink returns a nil *Span, every Span method is nil-safe, and the only
// hot-path cost with tracing disabled is a pointer comparison (plus one
// context value lookup per diff inside the differ).

// TraceID identifies one distributed trace: 16 bytes, rendered as 32 hex
// digits (the W3C trace-id field).
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 bytes, 16 hex digits (the
// W3C parent-id field).
type SpanID [8]byte

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText renders the ID as lowercase hex (JSON encodes IDs as strings).
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses the 32-digit hex form.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("telemetry: trace id must be 32 hex digits, got %q", b)
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// MarshalText renders the ID as lowercase hex (JSON encodes IDs as strings).
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the 16-digit hex form.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("telemetry: span id must be 16 hex digits, got %q", b)
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// SpanContext is the propagated part of a span: which trace it belongs to
// and which span is the parent of whatever continues the trace. The zero
// value is invalid (no trace).
type SpanContext struct {
	Trace TraceID `json:"trace_id"`
	Span  SpanID  `json:"span_id"`
}

// Valid reports whether the context names a trace and a span (both
// non-zero, per W3C).
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set): "00-<trace-id>-<parent-id>-01".
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// SlogAttrs returns trace_id/span_id attributes for log correlation, nil
// for an invalid context — append them to any slog record that belongs to
// the trace.
func (sc SpanContext) SlogAttrs() []slog.Attr {
	if !sc.Valid() {
		return nil
	}
	return []slog.Attr{
		slog.String("trace_id", sc.Trace.String()),
		slog.String("span_id", sc.Span.String()),
	}
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version except the invalid "ff" and ignores the trace flags, per the
// spec's forward-compatibility rules; all-zero trace or parent IDs are
// rejected. The error is nil only for a Valid context, so
// `sc, _ := ParseTraceparent(h)` followed by sc.Valid() is a safe idiom
// for optional headers.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	// version(2) '-' trace(32) '-' parent(16) '-' flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("telemetry: malformed traceparent %q", h)
	}
	if h[:2] == "ff" {
		return sc, fmt.Errorf("telemetry: invalid traceparent version %q", h[:2])
	}
	if len(h) > 55 && h[:2] == "00" {
		return sc, fmt.Errorf("telemetry: traceparent version 00 must be exactly 55 chars, got %d", len(h))
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(sc.Span[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: traceparent parent-id: %w", err)
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: traceparent flags: %w", err)
	}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("telemetry: traceparent carries an all-zero id: %q", h)
	}
	return sc, nil
}

// randomIDs draws a fresh (trace, span) ID pair. math/rand/v2's global
// source is goroutine-sharded and seeded from OS entropy; trace IDs need
// uniqueness, not cryptographic strength.
func randomIDs() (TraceID, SpanID) {
	var t TraceID
	var s SpanID
	for i := 0; i < 16; i += 8 {
		v := rand.Uint64()
		for j := 0; j < 8; j++ {
			t[i+j] = byte(v >> (8 * j))
		}
	}
	v := rand.Uint64() | 1 // never all-zero
	for j := 0; j < 8; j++ {
		s[j] = byte(v >> (8 * j))
	}
	return t, s
}

// NewSpanContext mints a fresh root context: a new trace ID and span ID.
// Use it to correlate logs and responses for a request that carries no
// incoming traceparent, even when no spans are being recorded.
func NewSpanContext() SpanContext {
	t, s := randomIDs()
	if t.IsZero() {
		t[0] = 1
	}
	return SpanContext{Trace: t, Span: s}
}

// Attr is one span attribute. Values are kept as-is until export.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation of a trace. Spans are created with StartSpan
// (nil when tracing is off — every method is nil-safe), annotated with
// SetAttr, and delivered to their sink exactly once by End. A Span is
// owned by one goroutine; sinks that retain spans past SpanEnd must copy.
type Span struct {
	Name   string    `json:"name"`
	Trace  TraceID   `json:"trace_id"`
	ID     SpanID    `json:"span_id"`
	Parent SpanID    `json:"parent_id,omitempty"`
	Start  time.Time `json:"start"`
	Stop   time.Time `json:"stop"`
	Attrs  []Attr    `json:"attrs,omitempty"`

	sink  SpanSink
	ended bool
}

// SpanSink receives completed spans. Implementations must be
// concurrency-safe (engine workers end spans from many goroutines) and
// must copy the span if they retain it past the call.
type SpanSink interface {
	SpanEnd(s *Span)
}

// StartSpan opens a span under parent (a fresh root trace when parent is
// invalid), starting now. A nil sink returns a nil span: the whole span
// API degrades to no-ops, which is the off-by-default fast path.
func StartSpan(sink SpanSink, parent SpanContext, name string) *Span {
	return StartSpanAt(sink, parent, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for spans
// reconstructed after the fact (queue-wait spans, phase spans derived from
// measured durations).
func StartSpanAt(sink SpanSink, parent SpanContext, name string, start time.Time) *Span {
	if sink == nil {
		return nil
	}
	s := &Span{Name: name, Start: start, sink: sink}
	t, id := randomIDs()
	s.ID = id
	if parent.Valid() {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	} else {
		s.Trace = t
		if s.Trace.IsZero() {
			s.Trace[0] = 1
		}
	}
	return s
}

// Context returns the span's propagation context (its own ID as the
// parent for children). The zero context is returned for a nil span, so
// children started under it open fresh traces only if they have a sink.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// SetAttr appends one attribute. No-op on a nil or ended span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// End stamps the span's stop time and delivers it to the sink. Only the
// first End delivers; later calls (and calls on a nil span) are no-ops.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit stop time.
func (s *Span) EndAt(t time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Stop = t
	s.sink.SpanEnd(s)
}

// Duration returns Stop − Start, 0 for a nil or unfinished span.
func (s *Span) Duration() time.Duration {
	if s == nil || s.Stop.IsZero() {
		return 0
	}
	return s.Stop.Sub(s.Start)
}

// SpanRecorder is a SpanSink that collects copies of every completed span,
// for tests and in-process trace inspection (pipebench's traced runs).
type SpanRecorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// SpanEnd implements SpanSink.
func (r *SpanRecorder) SpanEnd(s *Span) {
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far, in completion order.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Reset discards every recorded span.
func (r *SpanRecorder) Reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// PhaseSpans adapts the Tracer contract into phase spans: every Phase
// event becomes one completed span named "truediff.<phase>" under parent,
// back-dated by the reported duration so consecutive phases tile the
// parent span. The returned Tracer is concurrency-safe if the sink is.
func PhaseSpans(sink SpanSink, parent SpanContext) Tracer {
	return phaseSpanTracer{sink: sink, parent: parent}
}

type phaseSpanTracer struct {
	sink   SpanSink
	parent SpanContext
}

func (t phaseSpanTracer) Phase(p Phase, d time.Duration) {
	now := time.Now()
	s := StartSpanAt(t.sink, t.parent, "truediff."+p.String(), now.Add(-d))
	s.EndAt(now)
}

// --- context propagation ---

type ctxKey int

const (
	tracerCtxKey ctxKey = iota
	spanCtxKey
)

// ContextWithTracer attaches a per-diff Tracer to ctx: a diff run under
// ctx reports its phases to tr. It is the only route phase events leave a
// diff by, which is how request-scoped phase spans reach a differ shared
// by every request (the engine attaches a PhaseSpans tracer per pair).
func ContextWithTracer(ctx context.Context, tr Tracer) context.Context {
	return context.WithValue(ctx, tracerCtxKey, tr)
}

// TracerFromContext returns the Tracer attached by ContextWithTracer, nil
// when absent (including a nil ctx).
func TracerFromContext(ctx context.Context) Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerCtxKey).(Tracer)
	return tr
}

// ContextWithSpanContext attaches a trace context for downstream clients
// to continue (structdiff.ServiceClient injects it as the outgoing
// traceparent header and parents its client span under it).
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey, sc)
}

// SpanContextFromContext returns the trace context attached by
// ContextWithSpanContext; the zero (invalid) context when absent.
func SpanContextFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey).(SpanContext)
	return sc
}
