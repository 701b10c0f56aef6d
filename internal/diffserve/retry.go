package diffserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derrors"
	"repro/internal/telemetry"
)

// This file is the client side of the network resilience layer: the retry
// policy and the per-endpoint circuit breaker. Both are safe to apply
// aggressively because the service is idempotent by construction — a diff
// is a pure function of two digest-identified trees, so replaying a
// request can never produce a different answer, only the same one later.
//
// Everything here is opt-in and zero-overhead when off: a client built
// without WithRetry/WithBreaker takes the single-attempt fast path through
// roundTrip with one nil check per feature.

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

// --- circuit breaker ------------------------------------------------------

// Breaker states, exposed as the diffserve_client_breaker_state gauge.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// BreakerConfig parameterizes the client's per-endpoint circuit breaker.
// The zero value selects the defaults noted on each field.
type BreakerConfig struct {
	// Window is the rolling failure-rate window, backed by the same
	// epoch-tagged slot ring the SLO module uses. Default 30s.
	Window time.Duration
	// MinRequests is the volume floor: the ratio cannot trip the breaker
	// until the window holds at least this many attempts. Default 10.
	MinRequests uint64
	// FailureRatio is the windowed failure ratio at or above which the
	// breaker opens. Default 0.5.
	FailureRatio float64
	// OpenFor is how long an open breaker fails fast before allowing a
	// half-open probe. Default 5s.
	OpenFor time.Duration
	// Now overrides the clock, for tests. Nil uses time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.MinRequests == 0 {
		c.MinRequests = 10
	}
	if c.FailureRatio <= 0 || c.FailureRatio > 1 {
		c.FailureRatio = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breaker is one endpoint's circuit: closed (attempts flow, outcomes are
// windowed), open (calls fail fast with ErrCircuitOpen until the cooldown
// elapses), half-open (exactly one probe is admitted; its outcome closes
// or re-opens the circuit).
type breaker struct {
	cfg   BreakerConfig
	opens *atomic.Uint64 // shared opens counter (client-wide)

	mu       sync.Mutex
	state    int32
	window   *telemetry.SLO // failure-rate ring: Observe(_, ok)
	openedAt time.Time
	probing  bool
}

func newBreaker(cfg BreakerConfig, opens *atomic.Uint64) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, opens: opens, window: newBreakerWindow(cfg)}
}

// newBreakerWindow builds the failure-rate ring: the SLO slot ring reused
// as a plain windowed success/failure counter (latency objectives are
// irrelevant here, only Requests and Errors are read back).
func newBreakerWindow(cfg BreakerConfig) *telemetry.SLO {
	return telemetry.NewSLO(telemetry.SLOConfig{Window: cfg.Window, Slots: 30, Now: cfg.Now})
}

// allow gates one attempt. Closed admits freely; open fails fast until
// OpenFor has elapsed, then flips to half-open and admits a single probe;
// half-open admits nothing beyond the in-flight probe.
func (b *breaker) allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return b.openError()
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return b.openError()
		}
		b.probing = true
		return nil
	}
}

func (b *breaker) openError() error {
	return fmt.Errorf("diffserve: %w (cooling down %v)", derrors.ErrCircuitOpen, b.cfg.OpenFor)
}

// observe records one attempt's outcome and drives the state machine: a
// half-open probe's success closes the circuit with a fresh window, its
// failure re-opens it; a closed circuit opens when the windowed failure
// ratio reaches the threshold over at least MinRequests attempts.
func (b *breaker) observe(latency time.Duration, ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.state = breakerClosed
			b.window = newBreakerWindow(b.cfg) // forgive: stale failures must not re-trip
			return
		}
		b.state = breakerOpen
		b.openedAt = b.cfg.Now()
		b.opens.Add(1)
	case breakerClosed:
		b.window.Observe(latency, ok)
		snap := b.window.Snapshot()
		if snap.Requests >= b.cfg.MinRequests &&
			float64(snap.Errors)/float64(snap.Requests) >= b.cfg.FailureRatio {
			b.state = breakerOpen
			b.openedAt = b.cfg.Now()
			b.opens.Add(1)
		}
	default: // open: late results from pre-open attempts carry no new information
	}
}

// State reports the breaker's current state for the exposition gauge:
// 0 closed, 1 open, 2 half-open.
func (b *breaker) State() int32 {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// --- client telemetry -----------------------------------------------------

// clientMetrics counts the resilience layer's decisions, exposed by
// Client.GatherMetrics as diffserve_client_* series.
type clientMetrics struct {
	attempts     atomic.Uint64 // HTTP attempts sent (first tries and retries)
	retries      atomic.Uint64 // sequential re-attempts after a retryable failure
	breakerOpens atomic.Uint64 // closed/half-open → open transitions
	breakerFast  atomic.Uint64 // calls failed fast by an open breaker
	resends      atomic.Uint64 // unknown_ref recoveries (full-tree re-sends)
}

// ClientSnapshot is a point-in-time copy of a client's resilience
// counters.
type ClientSnapshot struct {
	Attempts     uint64
	Retries      uint64
	BreakerOpens uint64
	BreakerFast  uint64
	Resends      uint64
}

// ClientSnapshot returns the client's cumulative resilience counters.
func (c *Client) ClientSnapshot() ClientSnapshot {
	return ClientSnapshot{
		Attempts:     c.m.attempts.Load(),
		Retries:      c.m.retries.Load(),
		BreakerOpens: c.m.breakerOpens.Load(),
		BreakerFast:  c.m.breakerFast.Load(),
		Resends:      c.m.resends.Load(),
	}
}

// GatherMetrics implements telemetry.Gatherer for the client's resilience
// counters, so a caller can mount a Client on telemetry.Handler next to
// its engines.
func (c *Client) GatherMetrics() []telemetry.Metric {
	counter := func(name, help string, v uint64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)}
	}
	ms := []telemetry.Metric{
		counter("diffserve_client_attempts_total", "HTTP attempts sent (first tries and retries).", c.m.attempts.Load()),
		counter("diffserve_client_retries_total", "Requests re-attempted after a retryable failure.", c.m.retries.Load()),
		counter("diffserve_client_breaker_opens_total", "Circuit breaker transitions to open.", c.m.breakerOpens.Load()),
		counter("diffserve_client_breaker_fastfails_total", "Calls failed fast by an open circuit breaker.", c.m.breakerFast.Load()),
		counter("diffserve_client_resends_total", "unknown_ref recoveries: requests re-sent with full trees.", c.m.resends.Load()),
	}
	c.brMu.Lock()
	endpoints := make([]string, 0, len(c.breakers))
	for ep := range c.breakers {
		endpoints = append(endpoints, ep)
	}
	c.brMu.Unlock()
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		c.brMu.Lock()
		b := c.breakers[ep]
		c.brMu.Unlock()
		ms = append(ms, telemetry.Metric{
			Name: "diffserve_client_breaker_state", Kind: telemetry.KindGauge,
			Help:   "Circuit breaker state per endpoint (0 closed, 1 open, 2 half-open).",
			Value:  float64(b.State()),
			Labels: []telemetry.Label{{Key: "endpoint", Value: ep}},
		})
	}
	return ms
}
