package main

import (
	"testing"

	"repro/internal/telemetry"
)

// TestLoadTraceEndToEnd runs the self-contained load test with tracing on
// and verifies that requests produce complete traces: one trace ID
// spanning the client RPC, the server request, the dispatch queue, the
// engine, and the four truediff phases.
func TestLoadTraceEndToEnd(t *testing.T) {
	rec := telemetry.NewSpanRecorder()
	code := runLoad(loadConfig{
		clients:  2,
		requests: 6,
		workers:  2,
		seed:     3,
		trace:    true,
		rec:      rec,
	})
	if code != 0 {
		t.Fatalf("runLoad exited %d", code)
	}

	sum := summarizeSpans(rec.Spans())
	if sum.traces == 0 {
		t.Fatal("no traces recorded")
	}
	if sum.complete == 0 {
		t.Fatalf("no complete traces among %d: counts %v", sum.traces, sum.counts)
	}
	// Every request that was neither shed nor retried yields exactly the
	// eight-span chain; at minimum the chain's links must all be present.
	for _, name := range loadSpanNames {
		if sum.counts[name] == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

// TestLoadChaosGoodput runs the self-contained load test through the
// chaos proxy: with retries armed, a 20% fault rate must not produce
// hard failures (exit 1), only retried or shed requests.
func TestLoadChaosGoodput(t *testing.T) {
	code := runLoad(loadConfig{
		clients:   2,
		requests:  20,
		workers:   2,
		seed:      3,
		chaos:     true,
		chaosRate: 0.2,
		chaosSeed: 5,
	})
	if code != 0 {
		t.Fatalf("runLoad with chaos exited %d, want 0", code)
	}
}
