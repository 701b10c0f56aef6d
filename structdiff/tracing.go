package structdiff

// This file re-exports the distributed-tracing surface of
// internal/telemetry, so applications can trace diffs end to end — facade,
// engine, or diffd service — without importing internal paths. See
// docs/TRACING.md for the span taxonomy and wiring recipes.

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
	// SLOConfig sets the rolling window and latency objective of a diff
	// service's request SLO (ServiceConfig.SLO).
	SLOConfig = telemetry.SLOConfig
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
