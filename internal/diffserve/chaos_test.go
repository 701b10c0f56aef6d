package diffserve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/derrors"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/tree"
	"repro/internal/uri"
)

// The chaos suite validates the resilience invariant end to end, per
// call: with a seeded fault proxy between client and server, every
// DiffPair either returns the correct result for its pair or a typed
// error — never a silent loss, another pair's result, or a hung
// goroutine.

// chaosProxy starts a fault proxy in front of the test server.
func chaosProxy(t *testing.T, target string, cfg chaos.Config) *chaos.Proxy {
	t.Helper()
	cfg.Target = target
	p, err := chaos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// typedError reports whether err is one of the client's documented
// failure modes — a sentinel the caller can errors.Is against, or a
// typed wire-kind error. Anything else is an invariant violation.
func typedError(err error) bool {
	for _, sentinel := range []error{
		derrors.ErrServiceUnavailable,
		derrors.ErrDiffPanic,
		derrors.ErrDiffTimeout,
		derrors.ErrIllTyped,
		derrors.ErrNilTree,
		context.Canceled,
		context.DeadlineExceeded,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return wireKind(err) != ""
}

// settleWorkers waits until the language holds no worker slot and no job
// is pending — the no-wedged-worker check.
func settleWorkers(t *testing.T, srv *Server, lang string) {
	t.Helper()
	ls := srv.langs[lang]
	deadline := time.Now().Add(10 * time.Second)
	for len(ls.slots) != 0 || srv.m.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker slots still held after chaos run (%d slots held, %d jobs pending)",
				len(ls.slots), srv.m.pending.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settleGoroutines waits for the goroutine count to return to (near) the
// baseline — the no-leaked-goroutine check. Slack covers the runtime's
// own background goroutines and lingering keep-alive conns.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d at start, %d after settle\n%s",
				base, runtime.NumGoroutine(), buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosBatchInvariant runs several seeded fault schedules against a
// retrying client, with every pair of each round diffed on a goroutine of
// its own, and asserts the invariant on every DiffPair call.
func TestChaosBatchInvariant(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 4, MaxQueue: 1024})
	// Each DiffPair is one wire request, so a schedule sees about
	// rounds × pairs + retries fault draws: at these rates every seeded
	// schedule injects.
	schedules := []chaos.Config{
		{Seed: 1, ResetRate: 0.10, ErrorRate: 0.10, TruncateRate: 0.10},
		{Seed: 2, ErrorRate: 0.25, ErrorBurst: 3},
		{Seed: 3, ResetRate: 0.25, LatencyRate: 0.30, Latency: 5 * time.Millisecond},
		{Seed: 4, TruncateRate: 0.20, ErrorRate: 0.10},
	}

	const nPairs = 12
	pairs := make([]engine.Pair, nPairs)
	targets := make([]*tree.Node, nPairs)
	for i := range pairs {
		src, dst := genPair(int64(i+1), 40)
		pairs[i] = engine.Pair{Source: src, Target: dst, Label: fmt.Sprintf("chaos#%d", i), Alloc: uri.NewAllocator()}
		targets[i] = dst
	}

	for _, sched := range schedules {
		sched := sched
		t.Run(fmt.Sprintf("seed%d", sched.Seed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			p := chaosProxy(t, hs.URL, sched)
			c := NewClient(p.URL(), "exp", exp.Schema(),
				WithRetry(RetryPolicy{
					MaxAttempts: 6, BaseBackoff: time.Millisecond,
					MaxBackoff: 20 * time.Millisecond, PerAttemptTimeout: 5 * time.Second,
					Seed: sched.Seed,
				}))
			defer c.Close()

			for iter := 0; iter < 4; iter++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res := make([]engine.PairResult, nPairs)
				var wg sync.WaitGroup
				wg.Add(nPairs)
				for i := range pairs {
					go func(i int) {
						defer wg.Done()
						res[i] = c.DiffPair(ctx, pairs[i])
					}(i)
				}
				wg.Wait()
				cancel()
				for i := range res {
					switch {
					case res[i].Err != nil:
						if res[i].Result != nil {
							t.Fatalf("iter %d pair %d: both a result and an error: %v", iter, i, res[i].Err)
						}
						if !typedError(res[i].Err) {
							t.Fatalf("iter %d pair %d: untyped error: %v", iter, i, res[i].Err)
						}
					case res[i].Result == nil || res[i].Result.Patched == nil:
						t.Fatalf("iter %d pair %d: no error and no patched tree", iter, i)
					case res[i].Result.Patched.ExactHash() != targets[i].ExactHash():
						// The patched tree must be pair i's target — a mismatch
						// means answers were crossed or corrupted in flight.
						t.Fatalf("iter %d pair %d: patched tree is not this pair's target", iter, i)
					}
				}
			}
			if c := p.Counts(); c.Faults()+c.Delays == 0 {
				t.Fatalf("schedule injected nothing — chaos config inert: %+v", c)
			}
			_ = c.Close()
			_ = p.Close()
			settleWorkers(t, srv, "exp")
			settleGoroutines(t, base)
		})
	}
}

// TestChaosRetrySuccessRate is the acceptance gate: at a 10% injected
// fault rate, the retrying client sustains >99% end-to-end success while
// the no-retry baseline demonstrably fails.
func TestChaosRetrySuccessRate(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 4, MaxQueue: 1024})
	// 4% resets + 3% errors + 3% truncations = 10% total fault rate.
	faults := chaos.Config{Seed: 7, ResetRate: 0.04, ErrorRate: 0.03, TruncateRate: 0.03}
	const n = 300

	run := func(c *Client) (fails int) {
		for i := 0; i < n; i++ {
			src, dst := genPair(int64(i+1), 20)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := c.Diff(ctx, src, dst, nil)
			cancel()
			if err != nil {
				if !typedError(err) {
					t.Fatalf("request %d: untyped error: %v", i, err)
				}
				fails++
			}
		}
		return fails
	}

	// Baseline: same fault schedule, no retries.
	pb := chaosProxy(t, hs.URL, faults)
	base := NewClient(pb.URL(), "exp", exp.Schema())
	baseFails := run(base)
	_ = base.Close()
	_ = pb.Close()
	if baseFails == 0 {
		t.Fatal("no-retry baseline never failed at 10% fault rate — injection inert, test proves nothing")
	}

	// Retrying client: same schedule from the same seed.
	pr := chaosProxy(t, hs.URL, faults)
	rc := NewClient(pr.URL(), "exp", exp.Schema(),
		WithRetry(RetryPolicy{
			MaxAttempts: 6, BaseBackoff: time.Millisecond,
			MaxBackoff: 20 * time.Millisecond, PerAttemptTimeout: 5 * time.Second,
			Seed: 7,
		}))
	defer rc.Close()
	fails := run(rc)
	rate := float64(n-fails) / float64(n)
	t.Logf("baseline: %d/%d failed; retrying: %d/%d failed (%.2f%% success, %d retries)",
		baseFails, n, fails, n, 100*rate, rc.ClientSnapshot().Retries)
	if rate <= 0.99 {
		t.Fatalf("retrying client success rate %.4f, want > 0.99", rate)
	}
	if rc.ClientSnapshot().Retries == 0 {
		t.Fatal("retrying client recorded no retries under 10%% faults")
	}
}

// TestChaosBlackholeBounded pins the per-attempt budget: against a 100%
// blackhole, a retrying client fails within MaxAttempts × PerAttemptTimeout
// instead of hanging on the first dead connection.
func TestChaosBlackholeBounded(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	base := runtime.NumGoroutine()
	p := chaosProxy(t, hs.URL, chaos.Config{Seed: 5, BlackholeRate: 1})
	c := NewClient(p.URL(), "exp", exp.Schema(),
		WithRetry(RetryPolicy{
			MaxAttempts: 2, BaseBackoff: time.Millisecond,
			MaxBackoff: 2 * time.Millisecond, PerAttemptTimeout: 100 * time.Millisecond,
			Seed: 5,
		}))
	src, dst := genPair(9, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Diff(ctx, src, dst, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("blackholed Diff = %v, want ErrServiceUnavailable", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("blackholed Diff took %v — per-attempt budget not enforced", elapsed)
	}
	if snap := c.ClientSnapshot(); snap.Attempts != 2 {
		t.Fatalf("attempts = %d, want exactly 2", snap.Attempts)
	}
	_ = c.Close()
	_ = p.Close()
	settleWorkers(t, srv, "exp")
	settleGoroutines(t, base)
}

// TestReadyzSplitsFromHealthz pins the probe contract: /healthz is pure
// liveness (200 even while draining), /readyz carries the routing
// decision (503 on lameduck, then drain).
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	status := func(path string) int {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := status("/healthz"); s != 200 {
		t.Fatalf("/healthz = %d, want 200", s)
	}
	if s := status("/readyz"); s != 200 {
		t.Fatalf("/readyz = %d, want 200", s)
	}

	// Lameduck: unready for routing, alive, still serving diffs.
	srv.Lameduck()
	if s := status("/readyz"); s != 503 {
		t.Fatalf("/readyz after Lameduck = %d, want 503", s)
	}
	if s := status("/healthz"); s != 200 {
		t.Fatalf("/healthz after Lameduck = %d, want 200 (lameduck is not death)", s)
	}
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(11, 20)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff during lameduck: %v (lameduck must keep serving)", err)
	}

	// Drain: still alive on /healthz, unready on /readyz, refusing diffs.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s := status("/readyz"); s != 503 {
		t.Fatalf("/readyz while draining = %d, want 503", s)
	}
	if s := status("/healthz"); s != 200 {
		t.Fatalf("/healthz while draining = %d, want 200 (draining is not death)", s)
	}
	if _, err := c.Diff(context.Background(), src, dst, nil); !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("Diff while draining = %v, want ErrServiceUnavailable", err)
	}
}

// TestReadyzSaturation flips /readyz on backlog alone: a server goes
// unready once the backlog reaches readyFraction of MaxQueue, below the
// shed point, so readiness reacts first.
func TestReadyzSaturation(t *testing.T) {
	const maxQueue = 10
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, MaxQueue: maxQueue})
	if srv.saturated() {
		t.Fatal("idle server reports saturated")
	}
	readyz := func() int {
		resp, err := hs.Client().Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Fake a backlog through the pending gauge (the same signal admit uses).
	n := int64(math.Ceil(readyFraction * maxQueue))
	srv.m.pending.Add(n - 1)
	defer srv.m.pending.Add(-n)
	if s := readyz(); s != 200 {
		t.Fatalf("/readyz with %d of %d backlogged = %d, want 200", n-1, maxQueue, s)
	}
	srv.m.pending.Add(1)
	if s := readyz(); s != 503 {
		t.Fatalf("/readyz with %d of %d backlogged = %d, want 503", n, maxQueue, s)
	}
}
