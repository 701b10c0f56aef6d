// Package chaos is an in-process HTTP fault proxy for resilience tests:
// it sits between a diffserve client and server on a loopback listener
// and injects the failures a lossy network produces — connection resets,
// added latency, truncated response bodies, 5xx/429 error bursts, and
// blackholes (connections that never answer).
//
// Like internal/faultinject, injection is seeded and self-contained: a
// Config with a Seed yields a reproducible fault decision sequence (per
// decision order; concurrent requests race for decisions, so tests
// assert invariants, not exact schedules). All fault kinds are expressed
// at the HTTP layer with stdlib means only: resets and truncations abort
// the connection via http.ErrAbortHandler, which the client observes as
// an io error mid-body or a closed connection — exactly what a mid-flight
// RST looks like.
//
// The proxy exists to validate one per-call invariant: under any fault
// schedule, each call of a resilient client either returns the correct
// result for its pair or a typed error — never a silent loss, a result
// for another pair, or a hang.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Proxy. The *Rate fields are independent
// probabilities in [0,1], evaluated in the order reset, blackhole,
// error, truncate, latency against a single draw — so their sum is the
// total fault rate and at most one fault fires per request.
type Config struct {
	// Target is the origin server's base URL (e.g. an httptest.Server
	// URL). Required.
	Target string
	// Seed seeds the fault-decision RNG. Zero seeds from the global RNG.
	Seed int64

	// ResetRate aborts the connection before any response bytes: the
	// client sees a connection reset / unexpected EOF.
	ResetRate float64
	// BlackholeRate accepts the request and never answers: the
	// connection hangs until the client's context or per-attempt timeout
	// expires, or the proxy closes.
	BlackholeRate float64
	// ErrorRate answers with a canned error instead of forwarding:
	// alternating 503 and 429 (the 429 carries Retry-After: 1). When
	// ErrorBurst > 1, one error decision extends to that many
	// consecutive requests — a correlated outage, the shape that
	// exhausts a retry budget.
	ErrorRate float64
	// TruncateRate forwards the request but aborts mid-body: the full
	// Content-Length is promised, about half the bytes arrive.
	TruncateRate float64
	// LatencyRate delays the forward by Latency (default 50ms).
	LatencyRate float64
	Latency     time.Duration

	// ErrorBurst is how many consecutive requests one error decision
	// covers. Values below 1 select 1.
	ErrorBurst int
}

// Counts is a point-in-time snapshot of the proxy's decisions.
type Counts struct {
	Forwarded  uint64 // requests passed through clean (latency-delayed ones included)
	Resets     uint64
	Blackholes uint64
	Errors     uint64 // canned 503/429 answers (bursts count each request)
	Truncates  uint64
	Delays     uint64
}

// Faults is the total number of injected faults in the snapshot.
func (c Counts) Faults() uint64 {
	return c.Resets + c.Blackholes + c.Errors + c.Truncates
}

// Proxy is a running fault proxy. Create one with New, point the client
// at URL(), and Close it when done (open blackholes are released).
type Proxy struct {
	cfg       Config
	ln        net.Listener
	hs        *http.Server
	fwd       *http.Client
	closed    chan struct{}
	closeOnce sync.Once

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int
	burstOdd  bool

	forwarded, resets, blackholes, errors, truncates, delays atomic.Uint64
}

// New starts a fault proxy on a fresh loopback port, forwarding to
// cfg.Target with faults injected per the configured rates.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("chaos: Config.Target is required")
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	if cfg.ErrorBurst < 1 {
		cfg.ErrorBurst = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		cfg:    cfg,
		ln:     ln,
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
		// The forward client must never retry or cache; a plain transport
		// with its own connection pool keeps proxy-side connections out of
		// the client's fault surface.
		fwd: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	p.hs = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() { _ = p.hs.Serve(ln) }()
	return p, nil
}

// URL returns the proxy's base URL; point the client under test here.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Close stops the proxy: the listener closes, blackholed requests are
// released (their connections abort), and idle forward connections are
// dropped. Idempotent.
func (p *Proxy) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.closed)
		err = p.hs.Close()
		p.fwd.CloseIdleConnections()
	})
	return err
}

// Counts snapshots the decision counters.
func (p *Proxy) Counts() Counts {
	return Counts{
		Forwarded:  p.forwarded.Load(),
		Resets:     p.resets.Load(),
		Blackholes: p.blackholes.Load(),
		Errors:     p.errors.Load(),
		Truncates:  p.truncates.Load(),
		Delays:     p.delays.Load(),
	}
}

// fault kinds, as decided per request.
const (
	faultNone = iota
	faultReset
	faultBlackhole
	faultError
	faultTruncate
	faultLatency
)

// decide draws one fault decision. Error bursts take precedence: while a
// burst is live every request is an error, which models a correlated
// outage rather than independent coin flips.
func (p *Proxy) decide() (kind int, odd bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.burstLeft > 0 {
		p.burstLeft--
		p.burstOdd = !p.burstOdd
		return faultError, p.burstOdd
	}
	draw := p.rng.Float64()
	for _, f := range []struct {
		rate float64
		kind int
	}{
		{p.cfg.ResetRate, faultReset},
		{p.cfg.BlackholeRate, faultBlackhole},
		{p.cfg.ErrorRate, faultError},
		{p.cfg.TruncateRate, faultTruncate},
		{p.cfg.LatencyRate, faultLatency},
	} {
		if draw < f.rate {
			if f.kind == faultError {
				p.burstLeft = p.cfg.ErrorBurst - 1
				p.burstOdd = !p.burstOdd
				return faultError, p.burstOdd
			}
			return f.kind, false
		}
		draw -= f.rate
	}
	return faultNone, false
}

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	kind, odd := p.decide()
	switch kind {
	case faultReset:
		p.resets.Add(1)
		panic(http.ErrAbortHandler)
	case faultBlackhole:
		p.blackholes.Add(1)
		select {
		case <-r.Context().Done():
		case <-p.closed:
		}
		panic(http.ErrAbortHandler)
	case faultError:
		p.errors.Add(1)
		if odd {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = io.WriteString(w, "chaos: injected 429\n")
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "chaos: injected 503\n")
		}
		return
	case faultLatency:
		p.delays.Add(1)
		t := time.NewTimer(p.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		case <-p.closed:
			panic(http.ErrAbortHandler)
		}
	}
	p.forward(w, r, kind == faultTruncate)
}

// forward relays the request to the target and the response back. With
// truncate set, the full Content-Length is declared but only about half
// the body is written before the connection aborts — a mid-body cut.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, truncate bool) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.cfg.Target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, "chaos: build forward: "+err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.fwd.Do(req)
	if err != nil {
		// The origin itself failed (e.g. it is shutting down); surface it
		// as a reset rather than inventing a status the origin never sent.
		p.resets.Add(1)
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.resets.Add(1)
		panic(http.ErrAbortHandler)
	}
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	if truncate && len(body) > 1 {
		p.truncates.Add(1)
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body[:len(body)/2])
		panic(http.ErrAbortHandler)
	}
	p.forwarded.Add(1)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}
