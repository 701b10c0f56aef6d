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
// as the in-process engine (structdiff.DiffService): Diff, DiffBatch,
// Snapshot, Close. Code written against that interface runs unchanged
// against a local engine or a remote daemon.
//
// The client remembers which trees the server has confirmed interned (by
// content-digest ref) and sends the ref instead of the S-expression on
// later requests — the service's analogue of the engine's whole-tree
// intern store. A server restart invalidates refs; the client detects the
// unknown_ref answer and retries once with the full trees. A Client is
// safe for concurrent use.
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

// WithSpans enables client-side tracing: each Diff/DiffBatch records a
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
// minutes), and an idle pool sized to the engine's default worker count
// (GOMAXPROCS — the number of concurrent diffs a saturated server runs
// per language), so batch fan-out reuses warm connections instead of
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

// Diff diffs source against target on the server and reconstructs the
// result locally: the script is decoded from its versioned envelope and
// the patched tree from its S-expression (with fresh URIs from alloc, or
// a private allocator when nil — server and client URI spaces are
// independent, which is the one visible difference from an in-process
// engine).
func (c *Client) Diff(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator) (*truediff.Result, error) {
	out, err := c.diff(ctx, []engine.Pair{{Source: source, Target: target, Alloc: alloc}}, false)
	if err != nil {
		return nil, err
	}
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	return out[0].Result, nil
}

func (c *Client) toResult(resp *DiffResponse, alloc *uri.Allocator) (*truediff.Result, error) {
	if resp.Script == nil {
		return nil, fmt.Errorf("diffserve: response carries neither script nor error")
	}
	script, err := resp.Script.Decode()
	if err != nil {
		return nil, err
	}
	res := &truediff.Result{Script: script}
	if resp.PatchedSExpr != "" {
		if alloc == nil {
			alloc = uri.NewAllocator()
		}
		res.Patched, err = tree.DecodeSExpr(resp.PatchedSExpr, c.sch, alloc)
		if err != nil {
			return nil, fmt.Errorf("diffserve: decode patched tree: %w", err)
		}
	}
	return res, nil
}

// DiffBatch ships the whole batch in one request; the server runs each
// pair as its own job, in parallel as its worker slots allow. Results are
// index-aligned with pairs; per-pair failures land in the pair's Err,
// exactly as with engine.DiffBatch.
// Pair.Alloc is used to decode that pair's patched tree.
func (c *Client) DiffBatch(ctx context.Context, pairs []engine.Pair) ([]engine.PairResult, error) {
	return c.diff(ctx, pairs, true)
}

// diff is the one call path of Diff and DiffBatch: it sends the pairs —
// one to /v1/diff, or any number to /v1/batch when batch is set — and
// converts the answers into index-aligned results. If the server has lost
// a ref the client sent, for the request or for any pair (a restart), it
// resends every tree in full once, but only while the caller is still
// waiting: a dead context must not spawn a second request.
func (c *Client) diff(ctx context.Context, pairs []engine.Pair, batch bool) ([]engine.PairResult, error) {
	for i, p := range pairs {
		if p.Source == nil || p.Target == nil {
			if !batch {
				return nil, fmt.Errorf("diffserve: %w", derrors.ErrNilTree)
			}
			return nil, fmt.Errorf("diffserve: pair %d: %w", i, derrors.ErrNilTree)
		}
	}
	resps, err := c.send(ctx, pairs, batch, false)
	lost := wireKind(err) == ErrKindUnknownRef
	for i := range resps {
		if e := resps[i].Error; e != nil && e.Kind == ErrKindUnknownRef {
			lost = true
		}
	}
	if lost {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("diffserve: %w", context.Cause(ctx))
		}
		c.forgetRefs()
		c.m.resends.Add(1)
		resps, err = c.send(ctx, pairs, batch, true)
	}
	if err != nil {
		return nil, err
	}
	if len(resps) != len(pairs) {
		return nil, fmt.Errorf("diffserve: batch returned %d results for %d pairs", len(resps), len(pairs))
	}
	out := make([]engine.PairResult, len(pairs))
	for i := range resps {
		r := &resps[i]
		if r.Error != nil {
			out[i].Err = wireErr(*r.Error)
			continue
		}
		c.learnRefs(r.SourceRef, r.TargetRef)
		res, err := c.toResult(r, pairs[i].Alloc)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result = res
		if r.Stats != nil {
			if out[i].Stats, err = r.Stats.ToDiffStats(); err != nil {
				out[i].Err = err
			}
		}
	}
	return out, nil
}

// send makes one request for the pairs, with every tree in full when force
// is set, and returns the answers, one per pair. A /v1/diff answers its
// one pair's failure with an error status, which send returns as the
// request's error.
func (c *Client) send(ctx context.Context, pairs []engine.Pair, batch, force bool) ([]DiffResponse, error) {
	name, path := "diffserve.client.diff", "/v1/diff"
	if batch {
		name, path = "diffserve.client.batch", "/v1/batch"
	}
	span, tc := c.startSpan(ctx, name)
	defer span.End()
	in := make([]BatchPair, len(pairs))
	for i, p := range pairs {
		in[i] = BatchPair{
			Source:      c.treeInput(p.Source, force),
			Target:      c.treeInput(p.Target, force),
			Label:       p.Label,
			WantPatched: true,
		}
	}
	var resp BatchResponse
	var err error
	if batch {
		span.SetAttr("pairs", len(pairs))
		err = c.post(ctx, path, tc, BatchRequest{SchemaVersion: WireVersion, Lang: c.lang, Pairs: in}, &resp)
	} else {
		resp.Results = make([]DiffResponse, 1)
		err = c.post(ctx, path, tc, DiffRequest{SchemaVersion: WireVersion, Lang: c.lang,
			Source: in[0].Source, Target: in[0].Target, Label: in[0].Label, WantPatched: true}, &resp.Results[0])
	}
	if err != nil {
		span.SetAttr("err", err.Error())
		return nil, err
	}
	return resp.Results, nil
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
