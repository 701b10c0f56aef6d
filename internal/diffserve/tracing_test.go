package diffserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

// TestServiceTraceEndToEnd: one traced Diff through the full stack yields
// one trace containing the client RPC span, the server request span, the
// dispatch-queue span, the engine span, and the four truediff phase
// spans — eight spans, correctly parented, sharing one trace ID that also
// comes back in the response body.
func TestServiceTraceEndToEnd(t *testing.T) {
	rec := telemetry.NewSpanRecorder()
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, Spans: rec})
	c := NewClient(hs.URL, "exp", exp.Schema(), WithSpans(rec))
	defer c.Close()

	src, dst := genPair(7, 60)
	res, err := c.Diff(context.Background(), src, dst, nil)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if res.Script == nil {
		t.Fatal("no script in result")
	}

	spans := rec.Spans()
	byName := map[string]telemetry.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	want := []string{
		"diffserve.client.diff", "diffserve.request", "diffserve.queue", "engine.diff",
		"truediff.prepare", "truediff.shares", "truediff.select", "truediff.emit",
	}
	if len(spans) != len(want) {
		names := make([]string, len(spans))
		for i, s := range spans {
			names[i] = s.Name
		}
		t.Fatalf("recorded %d spans %v, want %d: %v", len(spans), names, len(want), want)
	}
	trace := byName["diffserve.client.diff"].Trace
	for _, name := range want {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("missing span %q", name)
		}
		if s.Trace != trace {
			t.Errorf("%s in trace %s, want %s (one trace end to end)", name, s.Trace, trace)
		}
	}

	// Parentage: client → request → {queue, engine} → phases.
	client, req := byName["diffserve.client.diff"], byName["diffserve.request"]
	if req.Parent != client.ID {
		t.Errorf("request span parented on %s, want client span %s", req.Parent, client.ID)
	}
	if q := byName["diffserve.queue"]; q.Parent != req.ID {
		t.Errorf("queue span parented on %s, want request span %s", q.Parent, req.ID)
	}
	eng := byName["engine.diff"]
	if eng.Parent != req.ID {
		t.Errorf("engine span parented on %s, want request span %s", eng.Parent, req.ID)
	}
	for _, name := range want[4:] {
		if ph := byName[name]; ph.Parent != eng.ID {
			t.Errorf("%s parented on %s, want engine span %s", name, ph.Parent, eng.ID)
		}
	}
}

// TestServiceTraceIDInResponse: the wire trace_id matches the propagated
// trace so clients can quote it when reporting a slow or failed request.
func TestServiceTraceIDInResponse(t *testing.T) {
	rec := telemetry.NewSpanRecorder()
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, Spans: rec})
	src, dst := genPair(8, 40)

	tc := telemetry.NewSpanContext()
	body, _ := json.Marshal(DiffRequest{
		SchemaVersion: WireVersion, Lang: "exp",
		Source: TreeInput{SExpr: tree.EncodeSExpr(src)},
		Target: TreeInput{SExpr: tree.EncodeSExpr(dst)},
	})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/diff", bytes.NewReader(body))
	req.Header.Set("traceparent", tc.Traceparent())
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/diff: %v", err)
	}
	defer httpResp.Body.Close()
	var resp DiffResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.TraceID != tc.Trace.String() {
		t.Errorf("response trace_id = %q, want the propagated trace %q", resp.TraceID, tc.Trace)
	}
	// The server's request span continued the caller's context.
	for _, s := range rec.Spans() {
		if s.Name == "diffserve.request" {
			if s.Trace != tc.Trace || s.Parent != tc.Span {
				t.Errorf("request span trace/parent = %s/%s, want %s/%s", s.Trace, s.Parent, tc.Trace, tc.Span)
			}
			return
		}
	}
	t.Fatal("no diffserve.request span recorded")
}

// TestTraceContextWithoutSink: with tracing off the server still honours
// an inbound traceparent for response correlation, and mints a fresh
// context otherwise — but records no spans.
func TestTraceContextWithoutSink(t *testing.T) {
	srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	tc := telemetry.NewSpanContext()
	r, _ := http.NewRequest(http.MethodPost, "/v1/diff", nil)
	r.Header.Set("traceparent", tc.Traceparent())
	span, got := srv.traceContext(r, "diffserve.request")
	if span != nil {
		t.Fatalf("span recorded without a sink: %+v", span)
	}
	if got != tc {
		t.Errorf("traceContext = %+v, want the inbound context %+v", got, tc)
	}
	r.Header.Del("traceparent")
	if _, got = srv.traceContext(r, "diffserve.request"); !got.Valid() {
		t.Error("traceContext minted an invalid fresh context")
	}
}

// TestRetryAfterBounds: the Retry-After estimate is the SLO-window p95
// times the backlog per worker, clamped to [1s, 30s].
func TestRetryAfterBounds(t *testing.T) {
	srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})

	// Fresh server: no observations, p95 = 0, estimate floors at 1s.
	if got := srv.retryAfter(1); got != time.Second {
		t.Errorf("fresh retryAfter(1) = %v, want the 1s floor", got)
	}

	// Saturated: slow observations push p95 up; a deep backlog overshoots
	// the cap and clamps to 30s.
	for i := 0; i < 20; i++ {
		srv.slo.Observe(10*time.Second, true)
	}
	if got := srv.retryAfter(1000); got != 30*time.Second {
		t.Errorf("saturated retryAfter(1000) = %v, want the 30s cap", got)
	}

	// In between: p95 ≈ 10s (bucket bound), backlog 2 over 2 workers ≈ 1
	// request's worth of work — scaled, not clamped.
	got := srv.retryAfter(2)
	if got <= time.Second || got >= 30*time.Second {
		t.Errorf("mid-range retryAfter(2) = %v, want strictly inside (1s, 30s)", got)
	}
}

// TestMetricsLabelEscaping: a label value containing quotes, backslashes,
// and newlines survives the exposition writer intact (golden-checked
// against the Prometheus text-format escaping rules).
func TestMetricsLabelEscaping(t *testing.T) {
	srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	hostile := "py\"lang\n\\"
	srv.langs[hostile] = srv.langs["exp"]
	srv.langNames = []string{hostile}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, srv.GatherMetrics()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	const want = `lang="py\"lang\n\\"`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition misses escaped label %s;\nlang lines:\n%s", want, grepLines(out, "lang="))
	}
	// No raw newline may survive inside a label value: every line must be
	// a comment, a sample, or blank.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("malformed exposition line (label leak?): %q", line)
		}
	}
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
