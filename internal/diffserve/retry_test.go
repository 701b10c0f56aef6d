package diffserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/uri"
)

// --- backoff ---

func TestBackoffJitterBounds(t *testing.T) {
	r := newRetrier(RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 1})
	for n := 0; n < 6; n++ {
		ceil := min(80*time.Millisecond, 10*time.Millisecond<<uint(n))
		for i := 0; i < 200; i++ {
			if d := r.backoff(n, 0); d < 0 || d > ceil {
				t.Fatalf("backoff(%d) = %v, want in [0, %v]", n, d, ceil)
			}
		}
	}
}

func TestBackoffHonorsServerAdvice(t *testing.T) {
	r := newRetrier(RetryPolicy{Seed: 1})
	// Advice above the jitter window overrides it: the server's estimate
	// of its own backlog beats the client's guess.
	if d := r.backoff(0, 500*time.Millisecond); d != 500*time.Millisecond {
		t.Fatalf("backoff with 500ms advice = %v, want exactly 500ms", d)
	}
	// Zero advice (no Retry-After) leaves the jittered value alone.
	if d := r.backoff(0, 0); d > 50*time.Millisecond {
		t.Fatalf("backoff(0) with no advice = %v, want within the 50ms base window", d)
	}
}

// --- retryable classification ---

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"saturated", wireErr(WireError{Kind: ErrKindSaturated, Message: "q"}), true},
		{"draining", wireErr(WireError{Kind: ErrKindDraining, Message: "d"}), true},
		{"internal", wireErr(WireError{Kind: ErrKindInternal, Message: "i"}), true},
		{"bad_request", wireErr(WireError{Kind: ErrKindBadRequest, Message: "b"}), false},
		{"unknown_ref", wireErr(WireError{Kind: ErrKindUnknownRef, Message: "r"}), false},
		{"panic", wireErr(WireError{Kind: ErrKindPanic, Message: "p"}), false},
		{"timeout", wireErr(WireError{Kind: ErrKindTimeout, Message: "t"}), false},
		{"cancelled", wireErr(WireError{Kind: ErrKindCancelled, Message: "c"}), false},
		{"transport", fmt.Errorf("diffserve: %w: connection refused", derrors.ErrServiceUnavailable), true},
		{"caller ctx", fmt.Errorf("diffserve: %w", context.Canceled), false},
		{"caller deadline", fmt.Errorf("diffserve: %w", context.DeadlineExceeded), false},
		{"untyped", errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// --- Retry-After extraction ---

func mkErr(status int, retryAfterHeader, body string) error {
	resp := &http.Response{StatusCode: status, Status: fmt.Sprintf("%d test", status), Header: http.Header{}}
	if retryAfterHeader != "" {
		resp.Header.Set("Retry-After", retryAfterHeader)
	}
	return errorFromResponse(resp, []byte(body))
}

func TestRetryAfterBodyBeatsHeader(t *testing.T) {
	err := mkErr(429, "7", `{"schema_version":"1.0","error":{"kind":"saturated","message":"q","retry_after_ms":2500}}`)
	if !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("err = %v, want ErrServiceUnavailable", err)
	}
	if got := RetryAfter(err); got != 2500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 2.5s (body retry_after_ms wins over header)", got)
	}
}

func TestRetryAfterHeaderFallback(t *testing.T) {
	err := mkErr(429, "7", `{"schema_version":"1.0","error":{"kind":"saturated","message":"q"}}`)
	if got := RetryAfter(err); got != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s (header fallback when body has none)", got)
	}
}

func TestRetryAfterGarbageHeaders(t *testing.T) {
	for _, h := range []string{"0", "-3", "garbage", "Fri, 07 Aug 2026 12:00:00 GMT", ""} {
		err := mkErr(429, h, `{"schema_version":"1.0","error":{"kind":"saturated","message":"q"}}`)
		if got := RetryAfter(err); got != 0 {
			t.Errorf("RetryAfter with header %q = %v, want 0 (no advice)", h, got)
		}
	}
}

func TestErrorFromResponseNonWireBodies(t *testing.T) {
	// An intermediary's 503 with a plain-text body is a transient,
	// retryable failure carrying the header's advice.
	err := mkErr(503, "2", "upstream connect error")
	if !errors.Is(err, derrors.ErrServiceUnavailable) || !retryable(err) {
		t.Fatalf("intermediary 503 = %v, want retryable ErrServiceUnavailable", err)
	}
	if got := RetryAfter(err); got != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", got)
	}
	// A plain 404 is permanent: no retry, no advice.
	err = mkErr(404, "", "not found")
	if retryable(err) || RetryAfter(err) != 0 {
		t.Fatalf("plain 404 = %v (retryable=%v), want permanent with no advice", err, retryable(err))
	}
}

// TestServerRetryAfterClamp pins the server side of the advice: the
// SLO-derived estimate clamps to [1s, 30s].
func TestServerRetryAfterClamp(t *testing.T) {
	srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	// No latency history: the floor applies regardless of backlog.
	if got := srv.retryAfter(1000); got != time.Second {
		t.Fatalf("retryAfter with empty window = %v, want the 1s floor", got)
	}
	for i := 0; i < 200; i++ {
		srv.slo.Observe(2*time.Second, true)
	}
	// Deep backlog at a 2s p95: the cap applies.
	if got := srv.retryAfter(100000); got != 30*time.Second {
		t.Fatalf("retryAfter with deep backlog = %v, want the 30s cap", got)
	}
	// Moderate backlog: inside the clamp, above the floor.
	if got := srv.retryAfter(10); got <= time.Second || got > 30*time.Second {
		t.Fatalf("retryAfter(10) = %v, want inside (1s, 30s]", got)
	}
}

// TestRetryAfterCountsDefaultWorkers: a server left to pick its own
// worker count advises the same Retry-After as one configured with that
// count, GOMAXPROCS.
func TestRetryAfterCountsDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	advice := func(workers int) time.Duration {
		srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: workers})
		for i := 0; i < 200; i++ {
			srv.slo.Observe(400*time.Millisecond, true)
		}
		return srv.retryAfter(40)
	}
	auto, four, one := advice(0), advice(4), advice(1)
	if auto != four {
		t.Fatalf("retryAfter with Workers 0 = %v, with Workers 4 = %v under GOMAXPROCS 4; want equal", auto, four)
	}
	if one <= four {
		t.Fatalf("retryAfter with 1 worker = %v, with 4 = %v; want the single worker's advice longer, or the clamp hides the comparison above", one, four)
	}
}

// --- client-level behavior against a live server ---

// TestDrainRetryBounded is the drain-retry interplay: a retrying client
// against a draining server converges to ErrServiceUnavailable after
// exactly MaxAttempts attempts — no retry storm, no hang.
func TestDrainRetryBounded(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	c := NewClient(hs.URL, "exp", exp.Schema(),
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1}))
	defer c.Close()
	src, dst := genPair(1, 20)
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	start := time.Now()
	_, err := c.Diff(ctx, src, dst, uri.NewAllocator())
	if !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("Diff against draining server = %v, want ErrServiceUnavailable", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("retries against a draining server took %v — unbounded backoff?", d)
	}
	snap := c.ClientSnapshot()
	if snap.Attempts != 4 || snap.Retries != 3 {
		t.Fatalf("snapshot = %+v, want exactly 4 attempts / 3 retries (bounded)", snap)
	}
}

// TestRetryRescuesStalledRequest blackholes the first /v1/diff request at
// a front proxy; the per-attempt timeout abandons it after 100ms and one
// retry completes the call.
func TestRetryRescuesStalledRequest(t *testing.T) {
	srv, _ := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	var n atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/diff" && n.Add(1) == 1 {
			// Drain the body first: the HTTP/1.1 server only watches for a
			// client disconnect (and cancels r.Context()) once the request
			// body is consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done() // stall until the client abandons the attempt
			panic(http.ErrAbortHandler)
		}
		srv.ServeHTTP(w, r)
	}))
	defer front.Close()

	c := NewClient(front.URL, "exp", exp.Schema(), WithRetry(RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		PerAttemptTimeout: 100 * time.Millisecond, Seed: 1,
	}))
	defer c.Close()
	src, dst := genPair(3, 30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Diff(ctx, src, dst, uri.NewAllocator())
	if err != nil {
		t.Fatalf("retried Diff: %v", err)
	}
	if res.Patched == nil || res.Patched.ExactHash() != dst.ExactHash() {
		t.Fatal("retried Diff returned a wrong or missing patched tree")
	}
	if snap := c.ClientSnapshot(); snap.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", snap.Retries)
	}
}

// TestResilienceOffIsZeroConfig pins the opt-in contract: a bare client
// takes the single-attempt path and reports empty resilience counters
// beyond the attempts themselves.
func TestResilienceOffIsZeroConfig(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(4, 20)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	snap := c.ClientSnapshot()
	if snap.Attempts != 1 || snap.Retries != 0 || snap.Resends != 0 {
		t.Fatalf("bare client snapshot = %+v, want 1 attempt and nothing else", snap)
	}
}

// TestClientMetricsExposition checks the counter inventory is complete.
func TestClientMetricsExposition(t *testing.T) {
	c := NewClient("http://127.0.0.1:0", "exp", exp.Schema())
	want := []string{
		"diffserve_client_attempts_total",
		"diffserve_client_retries_total",
		"diffserve_client_resends_total",
	}
	have := make(map[string]bool)
	for _, m := range c.GatherMetrics() {
		have[m.Name] = true
		if m.Kind != telemetry.KindCounter {
			t.Errorf("%s has kind %v, want counter", m.Name, m.Kind)
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("GatherMetrics missing %s", name)
		}
	}
}
