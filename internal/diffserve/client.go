package diffserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/derrors"
	"repro/internal/engine"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// Client speaks the diffserve wire protocol and presents the same surface
// as the in-process engine (structdiff.DiffService): Diff, DiffPair,
// Snapshot, Close. Code written against that interface runs unchanged
// against a local engine or a remote daemon.
//
// The client remembers which trees the server has confirmed holding in its
// ref table (by content-digest ref) and sends the ref instead of the
// S-expression on later requests. A server restart invalidates refs; the
// client detects the unknown_ref answer and retries once with the full
// trees. A Client is safe for concurrent use.
//
// The client is also where the network resilience layer lives (see
// retry.go): WithRetry arms bounded retries of transient failures under
// the caller's context, the client's only failure policy. Retries are off
// by default and cost nothing when off — every request is idempotent
// (diffs are pure functions of digest-identified trees), which is what
// makes retrying safe.
type Client struct {
	base   string
	lang   string
	sch    *sig.Schema
	hc     *http.Client
	tenant string
	spans  telemetry.SpanSink

	retry *retrier
	m     clientMetrics

	refMu sync.Mutex
	refs  map[string]bool
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the http.Client (timeouts, transports). The
// default client carries no flat timeout — per-request deadlines come
// from the caller's context (plus WithRetry's optional per-attempt bound)
// — over a tuned transport (see newTransport).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry arms transparent retries: transient failures — transport
// errors, saturation sheds, drain refusals, 5xx answers, per-attempt
// timeouts — are re-attempted with full-jitter exponential backoff that
// honors the server's Retry-After advice and the request context. The
// zero policy selects DefaultRetryPolicy.
func WithRetry(pol RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = newRetrier(pol) }
}

// WithTenant sets the X-Diffd-Tenant header, the identity the server's
// per-tenant concurrency limit accounts against.
func WithTenant(tenant string) ClientOption {
	return func(c *Client) { c.tenant = tenant }
}

// WithSpans enables client-side tracing: each Diff/DiffPair records a
// span to sink, and the span's context is shipped to the server in the
// W3C traceparent header so the server's request, queue, and engine spans
// join the same trace. Without this option the client still propagates a
// trace context found on ctx (telemetry.ContextWithSpanContext) — it just
// records no spans of its own.
func WithSpans(sink telemetry.SpanSink) ClientOption {
	return func(c *Client) { c.spans = sink }
}

// newTransport builds the client's default transport: explicit dial and
// TLS-handshake timeouts (a dead host fails in seconds, not kernel
// minutes), and an idle pool sized to the server's default worker slots
// (GOMAXPROCS — the number of concurrent diffs a saturated server runs
// per language), so concurrent calls reuse warm connections instead of
// thrashing the dial path. There is deliberately no ResponseHeaderTimeout:
// how long a diff may take is the caller's decision, made per request via
// the context (or per attempt via RetryPolicy.PerAttemptTimeout).
func newTransport() *http.Transport {
	conns := max(runtime.GOMAXPROCS(0), 4)
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
		MaxIdleConns:          2 * conns,
		MaxIdleConnsPerHost:   conns,
		IdleConnTimeout:       90 * time.Second,
	}
}

// startSpan opens the client-side span for one RPC. It returns the span
// (nil when the client has no sink) and the context to propagate: the
// span's own if one was recorded, else whatever the caller carried on ctx.
func (c *Client) startSpan(ctx context.Context, name string) (*telemetry.Span, telemetry.SpanContext) {
	parent := telemetry.SpanContextFromContext(ctx)
	span := telemetry.StartSpan(c.spans, parent, name)
	if span != nil {
		span.SetAttr("lang", c.lang)
		return span, span.Context()
	}
	return nil, parent
}

// NewClient returns a client for one language served at base (e.g.
// "http://localhost:8347"). The schema must match the server's schema for
// that language: it is used to decode patched trees locally.
func NewClient(base, lang string, sch *sig.Schema, opts ...ClientOption) *Client {
	c := &Client{
		base: base,
		lang: lang,
		sch:  sch,
		hc:   &http.Client{Transport: newTransport()},
		refs: make(map[string]bool),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// treeInput renders a tree for the wire: a bare ref when the server has
// confirmed this content digest, the S-expression otherwise.
func (c *Client) treeInput(n *tree.Node, force bool) TreeInput {
	if !force && tree.HashedWith(n, tree.SHA256) {
		ref := hexRef(n)
		c.refMu.Lock()
		known := c.refs[ref]
		c.refMu.Unlock()
		if known {
			return TreeInput{Ref: ref}
		}
	}
	return TreeInput{SExpr: tree.EncodeSExpr(n)}
}

func (c *Client) learnRefs(refs ...string) {
	c.refMu.Lock()
	for _, ref := range refs {
		if ref != "" {
			c.refs[ref] = true
		}
	}
	c.refMu.Unlock()
}

func (c *Client) forgetRefs() {
	c.refMu.Lock()
	c.refs = make(map[string]bool)
	c.refMu.Unlock()
}

// Diff is DiffPair for a pair given by its parts.
func (c *Client) Diff(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator) (*truediff.Result, error) {
	pr := c.DiffPair(ctx, engine.Pair{Source: source, Target: target, Alloc: alloc})
	return pr.Result, pr.Err
}

// DiffPair diffs one pair on the server, in one /v1/diff request that
// carries the pair's label, and decodes the script, the stats and the
// patched tree, with fresh URIs from p.Alloc or a private allocator when
// nil: server and client URI spaces are independent, the one visible
// difference from an in-process engine. Exactly one of the result's
// Result and Err is set; a nil ctx means context.Background(), as for the
// engine. If the server has lost a ref the client sent (a restart), both
// trees are resent in full once, unless ctx is already done.
func (c *Client) DiffPair(ctx context.Context, p engine.Pair) engine.PairResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Source == nil || p.Target == nil {
		return engine.PairResult{Err: fmt.Errorf("diffserve: %w", derrors.ErrNilTree)}
	}
	resp, err := c.send(ctx, p, false)
	if wireKind(err) == ErrKindUnknownRef {
		if ctx.Err() != nil {
			return engine.PairResult{Err: fmt.Errorf("diffserve: %w", context.Cause(ctx))}
		}
		c.forgetRefs()
		c.m.resends.Add(1)
		resp, err = c.send(ctx, p, true)
	}
	if err != nil {
		return engine.PairResult{Err: err}
	}
	c.learnRefs(resp.SourceRef, resp.TargetRef)
	if resp.Script == nil {
		return engine.PairResult{Err: fmt.Errorf("diffserve: response carries neither script nor error")}
	}
	var pr engine.PairResult
	script, err := resp.Script.Decode()
	if err == nil && resp.Stats != nil {
		pr.Stats, err = resp.Stats.ToDiffStats()
	}
	if err != nil {
		return engine.PairResult{Err: err}
	}
	pr.Result = &truediff.Result{Script: script}
	if resp.PatchedSExpr != "" {
		alloc := p.Alloc
		if alloc == nil {
			alloc = uri.NewAllocator()
		}
		if pr.Result.Patched, err = tree.DecodeSExpr(resp.PatchedSExpr, c.sch, alloc); err != nil {
			return engine.PairResult{Err: fmt.Errorf("diffserve: decode patched tree: %w", err)}
		}
	}
	return pr
}

// send makes one /v1/diff request for p, with both trees in full when
// force is set. A failed diff is answered with an error status, which
// send returns as the request's error.
func (c *Client) send(ctx context.Context, p engine.Pair, force bool) (*DiffResponse, error) {
	span, tc := c.startSpan(ctx, "diffserve.client.diff")
	defer span.End()
	req := DiffRequest{SchemaVersion: WireVersion, Lang: c.lang, Label: p.Label, WantPatched: true,
		Source: c.treeInput(p.Source, force), Target: c.treeInput(p.Target, force)}
	var resp DiffResponse
	if err := c.post(ctx, "/v1/diff", tc, req, &resp); err != nil {
		span.SetAttr("err", err.Error())
		return nil, err
	}
	return &resp, nil
}

// Snapshot fetches the server-side engine counters for the client's
// language. Unreachable servers yield the zero snapshot (the method has
// no error return, mirroring the engine's).
func (c *Client) Snapshot() engine.Snapshot {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, err := c.attempt(ctx, "/v1/snapshot", telemetry.SpanContext{}, nil)
	var resp SnapshotResponse
	if err != nil || json.Unmarshal(body, &resp) != nil || CheckWireVersion(resp.SchemaVersion) != nil {
		return engine.Snapshot{}
	}
	return resp.Langs[c.lang]
}

// Close releases idle connections. The server is unaffected.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// --- transport ---

// post runs one logical request through the resilience pipeline: retry
// loop → HTTP attempt → decode. The response is unmarshalled into out
// only after the successful attempt's body has been read in full, so a
// truncated or corrupted body is a typed, retryable transport error —
// never a half-decoded response.
func (c *Client) post(ctx context.Context, path string, tc telemetry.SpanContext, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("diffserve: encode request: %w", err)
	}
	respBody, err := c.roundTrip(ctx, path, tc, raw)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("diffserve: %w: decode response: %v", derrors.ErrServiceUnavailable, err)
	}
	return nil
}

// roundTrip is the retry loop around one endpoint call. With no
// RetryPolicy armed it is a single attempt; with one, transient failures
// are re-attempted under full-jitter backoff until the policy or the
// caller's context says stop.
func (c *Client) roundTrip(ctx context.Context, path string, tc telemetry.SpanContext, raw []byte) ([]byte, error) {
	attempts := 1
	if c.retry != nil {
		attempts = c.retry.pol.MaxAttempts
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diffserve: %w", context.Cause(ctx))
		}
		c.m.attempts.Add(1)
		body, err := c.attempt(ctx, path, tc, raw)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if attempt+1 >= attempts || !retryable(err) {
			return nil, lastErr
		}
		delay := c.retry.backoff(attempt, RetryAfter(err))
		if serr := sleepCtx(ctx, delay); serr != nil {
			return nil, serr
		}
		c.m.retries.Add(1)
	}
}

// attempt performs exactly one HTTP exchange, a POST of raw or a GET when
// raw is nil, and classifies its outcome:
//
//   - a transport failure, per-attempt timeout, truncated body, or
//     undecodable error answer is wrapped in ErrServiceUnavailable
//     (transient, retryable);
//   - a >= 400 answer carrying a wire error becomes that typed error;
//   - the caller's own context expiry surfaces as the context's cause.
//
// On success it returns the fully read response body.
func (c *Client) attempt(ctx context.Context, path string, tc telemetry.SpanContext, raw []byte) ([]byte, error) {
	actx := ctx
	if c.retry != nil && c.retry.pol.PerAttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.retry.pol.PerAttemptTimeout)
		defer cancel()
	}
	method := http.MethodGet
	if raw != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("diffserve: %w", err)
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc.Valid() {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	if c.tenant != "" {
		req.Header.Set("X-Diffd-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("diffserve: %w", context.Cause(ctx))
		}
		// Connection failures and per-attempt timeouts both land here;
		// either way the attempt is dead and a replay is safe.
		return nil, fmt.Errorf("diffserve: %w: %v", derrors.ErrServiceUnavailable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("diffserve: %w", context.Cause(ctx))
		}
		return nil, fmt.Errorf("diffserve: %w: read response: %v", derrors.ErrServiceUnavailable, err)
	}
	if resp.StatusCode >= 400 {
		return nil, errorFromResponse(resp, body)
	}
	return body, nil
}

// maxResponseBytes bounds how much of a response the client will buffer —
// a defensive bound above the server's request cap, maxBody (trees travel
// both ways).
const maxResponseBytes = 64 << 20

// errorFromResponse turns a >= 400 answer into a typed error: the wire
// error when the body carries one (merging in the Retry-After header as a
// fallback for the body's retry_after_ms), or a status-classified error
// for answers from intermediaries that do not speak the wire schema
// (load balancers, proxies) — 429/5xx map to the transient
// ErrServiceUnavailable, other 4xx to a permanent failure.
func errorFromResponse(resp *http.Response, body []byte) error {
	var er ErrorResponse
	if jerr := json.Unmarshal(body, &er); jerr == nil && er.Error.Kind != "" {
		if er.Error.RetryAfterMS <= 0 {
			er.Error.RetryAfterMS = retryAfterHeader(resp.Header.Get("Retry-After")).Milliseconds()
		}
		return wireErr(er.Error)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		return &kindError{
			kind:     ErrKindSaturated,
			msg:      fmt.Sprintf("server answered %s", resp.Status),
			sentinel: derrors.ErrServiceUnavailable,
			retry:    retryAfterHeader(resp.Header.Get("Retry-After")),
		}
	}
	return fmt.Errorf("diffserve: server answered %s", resp.Status)
}

// retryAfterHeader parses an HTTP Retry-After header's delay-seconds
// form. Zero, negative, absent, and garbage values (including the
// HTTP-date form, which the server never emits) yield zero — no advice.
func retryAfterHeader(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// --- error mapping ---

// kindError carries a wire error into the caller's errors.Is world: it
// wraps the sentinel its kind maps to and keeps the kind for inspection.
type kindError struct {
	kind     string
	msg      string
	sentinel error
	retry    time.Duration
}

func (e *kindError) Error() string {
	if e.retry > 0 {
		return fmt.Sprintf("diffserve: %s (%s; retry after %v)", e.msg, e.kind, e.retry)
	}
	return fmt.Sprintf("diffserve: %s (%s)", e.msg, e.kind)
}

func (e *kindError) Unwrap() error { return e.sentinel }

// RetryAfter extracts the server's retry advice from a saturation error,
// zero if err carries none. The advice is sourced from the wire error's
// retry_after_ms field when present, else from the HTTP Retry-After
// header (delay-seconds form; see errorFromResponse for the precedence).
func RetryAfter(err error) time.Duration {
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.retry
	}
	return 0
}

// wireKind returns the wire kind an error was built from, "" for other
// errors.
func wireKind(err error) string {
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.kind
	}
	return ""
}

func wireErr(we WireError) error {
	ke := &kindError{kind: we.Kind, msg: we.Message, retry: time.Duration(we.RetryAfterMS) * time.Millisecond}
	switch we.Kind {
	case ErrKindPanic:
		ke.sentinel = derrors.ErrDiffPanic
	case ErrKindTimeout:
		ke.sentinel = derrors.ErrDiffTimeout
	case ErrKindIllTyped:
		ke.sentinel = derrors.ErrIllTyped
	case ErrKindSaturated, ErrKindDraining:
		ke.sentinel = derrors.ErrServiceUnavailable
	case ErrKindCancelled:
		ke.sentinel = context.Canceled
	}
	return ke
}
