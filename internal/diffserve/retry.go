package diffserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derrors"
	"repro/internal/telemetry"
)

// This file is the client side of the network resilience layer: bounded
// retries under the caller's context. Retrying is safe because the service
// is idempotent by construction — a diff is a pure function of two
// digest-identified trees, so replaying a request can never produce a
// different answer, only the same one later.
//
// Retries are opt-in and zero-overhead when off: a client built without
// WithRetry takes the single-attempt path through roundTrip.

// --- retry policy ---------------------------------------------------------

// RetryPolicy parameterizes transparent retries of failed requests.
// Retried failures are the transient ones: transport errors (connection
// refused/reset, truncated or malformed responses), saturation sheds
// (429), drain refusals and other 5xx answers, and per-attempt timeouts.
// Caller-fault answers (bad request, unknown language, ill-typed) and the
// caller's own context expiry are never retried.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of attempts, the first one
	// included. Values below 1 select the default 4.
	MaxAttempts int
	// BaseBackoff is the backoff scale of the first retry; attempt n waits
	// a full-jittered duration in [0, min(MaxBackoff, BaseBackoff·2ⁿ)].
	// Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff window. Default 5s.
	MaxBackoff time.Duration
	// PerAttemptTimeout bounds each individual attempt (its dial, send,
	// server wall time, and response read) so one blackholed connection
	// costs one budget, not the whole call. The caller's context still
	// bounds the call as a whole. Zero disables the per-attempt bound.
	PerAttemptTimeout time.Duration
	// Seed seeds the jitter RNG, for deterministic tests. Zero seeds from
	// the global RNG.
	Seed int64
}

// DefaultRetryPolicy is the policy WithRetry applies when given the zero
// value: 4 attempts, 50ms base backoff doubling to a 5s cap, no
// per-attempt bound.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 5 * time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	return p
}

// retrier is one client's armed retry state: the policy plus its seeded
// jitter RNG.
type retrier struct {
	pol RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

func newRetrier(pol RetryPolicy) *retrier {
	pol = pol.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &retrier{pol: pol, rng: rand.New(rand.NewSource(seed))}
}

// backoff computes the wait before retry number n (n = 0 for the first
// retry): a full-jittered exponential backoff, overridden upward by the
// server's Retry-After advice when it gave any — the server's estimate of
// its own backlog beats the client's guess.
func (r *retrier) backoff(n int, advice time.Duration) time.Duration {
	ceil := r.pol.MaxBackoff
	if shifted := r.pol.BaseBackoff << uint(min(n, 32)); shifted > 0 && shifted < ceil {
		ceil = shifted
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceil) + 1))
	r.mu.Unlock()
	if advice > d {
		d = advice
	}
	return d
}

// sleep waits d, abandoning the wait (with the context's cause) when ctx
// expires first — a retry must never outlive the request it serves.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("diffserve: %w", context.Cause(ctx))
	}
}

// retryable classifies a whole-request failure as transient (worth a
// retry) or permanent. Per-pair errors inside a 200 batch response never
// reach this: the request itself succeeded.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	// The caller's own context expiring is not the service's failure.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	switch wireKind(err) {
	case ErrKindSaturated, ErrKindDraining, ErrKindInternal:
		return true
	case "":
		// Not a typed wire answer: transport failures (connection errors,
		// truncated bodies, garbage responses) are wrapped in
		// ErrServiceUnavailable by the transport layer and are exactly the
		// failures retries exist for.
		return errors.Is(err, derrors.ErrServiceUnavailable)
	default:
		// bad_request, unknown_lang, unknown_ref, panic, timeout,
		// ill_typed, cancelled: retrying replays the same deterministic
		// outcome (unknown_ref has its own dedicated recovery path).
		return false
	}
}

// --- client telemetry -----------------------------------------------------

// clientMetrics counts the resilience layer's decisions, exposed by
// Client.GatherMetrics as diffserve_client_* series.
type clientMetrics struct {
	attempts atomic.Uint64 // HTTP attempts sent (first tries and retries)
	retries  atomic.Uint64 // sequential re-attempts after a retryable failure
	resends  atomic.Uint64 // unknown_ref recoveries (full-tree re-sends)
}

// ClientSnapshot is a point-in-time copy of a client's resilience
// counters.
type ClientSnapshot struct {
	Attempts uint64
	Retries  uint64
	Resends  uint64
}

// ClientSnapshot returns the client's cumulative resilience counters.
func (c *Client) ClientSnapshot() ClientSnapshot {
	return ClientSnapshot{
		Attempts: c.m.attempts.Load(),
		Retries:  c.m.retries.Load(),
		Resends:  c.m.resends.Load(),
	}
}

// GatherMetrics implements telemetry.Gatherer for the client's resilience
// counters, so a caller can mount a Client on telemetry.Handler next to
// its engines.
func (c *Client) GatherMetrics() []telemetry.Metric {
	counter := func(name, help string, v uint64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)}
	}
	return []telemetry.Metric{
		counter("diffserve_client_attempts_total", "HTTP attempts sent (first tries and retries).", c.m.attempts.Load()),
		counter("diffserve_client_retries_total", "Requests re-attempted after a retryable failure.", c.m.retries.Load()),
		counter("diffserve_client_resends_total", "unknown_ref recoveries: requests re-sent with full trees.", c.m.resends.Load()),
	}
}
