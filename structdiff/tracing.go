package structdiff

// This file re-exports the distributed-tracing, flight-recorder, SLO, and
// trace-rotation surface of internal/telemetry, so applications can trace
// diffs end to end — facade, engine, or diffd service — without importing
// internal paths. See docs/TRACING.md for the span taxonomy and wiring
// recipes.

import (
	"repro/internal/telemetry"
)

type (
	// TraceID and SpanID are the W3C trace-context identifiers (16 and 8
	// bytes); SpanContext pairs them for propagation (Traceparent renders
	// the wire header, ParseTraceparent reads it back).
	TraceID     = telemetry.TraceID
	SpanID      = telemetry.SpanID
	SpanContext = telemetry.SpanContext
	// Span is one timed operation of a trace; SpanSink receives completed
	// spans (WithSpans, ServiceConfig.Spans); SpanAttr is one span
	// attribute; SpanRecorder is an in-memory sink for tests and trace
	// inspection.
	Span         = telemetry.Span
	SpanSink     = telemetry.SpanSink
	SpanAttr     = telemetry.Attr
	SpanRecorder = telemetry.SpanRecorder
	// FlightRecorder keeps a bounded in-memory ring of recent and
	// slowest-K diff records, served live at /debug/diffz by the diffd
	// server; FlightEntry is one record, FlightSnapshot the handler's
	// JSON shape.
	FlightRecorder = telemetry.FlightRecorder
	FlightEntry    = telemetry.FlightEntry
	FlightSnapshot = telemetry.FlightSnapshot
	// SLO evaluates rolling-window service-level objectives (availability,
	// latency attainment, burn rates), as the diffd service does for its
	// requests; SLOConfig configures it (NewSLO, ServiceConfig.SLO),
	// SLOSnapshot is its point-in-time evaluation (SLO.Snapshot).
	SLO         = telemetry.SLO
	SLOConfig   = telemetry.SLOConfig
	SLOSnapshot = telemetry.SLOSnapshot
	// RotatingFile is a size-rotated append-only log file for JSONL trace
	// streams (diffd -trace with -trace-max-bytes).
	RotatingFile = telemetry.RotatingFile
)

// NewSpanContext mints a fresh root trace context (for correlating work
// that did not arrive with a traceparent header).
func NewSpanContext() SpanContext { return telemetry.NewSpanContext() }

// ParseTraceparent parses a W3C traceparent header value; the returned
// context is Valid() only if the header carried usable IDs.
func ParseTraceparent(h string) (SpanContext, error) { return telemetry.ParseTraceparent(h) }

// StartSpan opens a span delivering to sink when ended (a fresh root
// trace when parent is invalid). A nil sink returns a nil span whose
// every method no-ops, so call sites need no tracing-enabled check.
func StartSpan(sink SpanSink, parent SpanContext, name string) *Span {
	return telemetry.StartSpan(sink, parent, name)
}

// NewSpanRecorder returns an empty in-memory span sink.
func NewSpanRecorder() *SpanRecorder { return telemetry.NewSpanRecorder() }

// NewFlightRecorder returns a flight recorder keeping the given number of
// recent entries and slowest entries (non-positive values take defaults).
func NewFlightRecorder(recent, slowest int) *FlightRecorder {
	return telemetry.NewFlightRecorder(recent, slowest)
}

// NewSLO returns a rolling-window SLO evaluator (zero cfg fields take the
// defaults documented on SLOConfig).
func NewSLO(cfg SLOConfig) *SLO { return telemetry.NewSLO(cfg) }

// OpenRotatingFile opens (appending) a log file that renames itself to
// path+".1" and starts fresh whenever a write would push it past
// maxBytes; maxBytes <= 0 disables rotation. Writes are atomic with
// respect to rotation, so JSONL records never straddle a rollover.
func OpenRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	return telemetry.OpenRotatingFile(path, maxBytes)
}
