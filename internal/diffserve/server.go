package diffserve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derrors"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Config parameterizes a Server. The zero value serves every registered
// language with engine defaults and moderate admission limits.
type Config struct {
	// Langs selects the languages to serve (names from Languages()). Empty
	// serves all registered languages.
	Langs []string
	// Workers bounds how many diffs run at once per language; zero or
	// negative selects GOMAXPROCS.
	Workers int
	// DiffTimeout bounds each diff from the moment its job takes a worker
	// slot, as a context deadline whose cause matches
	// derrors.ErrDiffTimeout. Zero or negative disables the bound.
	DiffTimeout time.Duration
	// DisableFallback turns off graceful degradation. By default the
	// service runs engines with FallbackRootReplace: a pair that panics or
	// times out is answered with a coarse but compliant root-replacement
	// script (stats flag Fallback set) instead of an error.
	DisableFallback bool

	// MaxQueue bounds the pending jobs, one per request, server-wide across
	// every served language: a request that would take them past MaxQueue
	// is shed with 429 and a Retry-After estimated from observed request
	// latency. Default 256.
	MaxQueue int
	// TenantLimit caps one tenant's concurrently admitted requests
	// (identified by the X-Diffd-Tenant header; absent means the shared
	// "anonymous" tenant). Excess is shed with 429. Default 32; negative
	// disables the per-tenant cap.
	TenantLimit int

	// SlowDiffThreshold enables the engines' slow-diff log; Trace, when
	// non-nil, receives one JSONL record per diff, correlated with the
	// request's distributed trace. Faults arms deterministic fault
	// injection inside the engines (tests only).
	SlowDiffThreshold time.Duration
	Trace             *telemetry.TraceWriter
	Faults            *faultinject.Injector

	// Spans, when non-nil, turns on distributed tracing: each diff
	// request runs under a "diffserve.request" span continuing the caller's
	// W3C traceparent header (or opening a fresh trace), with queue-wait,
	// engine, and phase child spans delivered to the sink. Nil disables
	// span recording; trace IDs still propagate for correlation.
	Spans telemetry.SpanSink
	// Logger receives structured records: handler panics at error level
	// here, plus the engines' failure, fallback and slow-diff records. Nil
	// logs panics and slow diffs through slog.Default() and drops failure
	// and fallback records.
	Logger *slog.Logger
	// SLO parameterizes the service's rolling-window objectives over diff
	// requests (availability = answers below 500, with sheds and
	// drain refusals counted as available; latency objective on request
	// wall time). Zero values select telemetry.SLOConfig defaults. The
	// shed Retry-After estimate derives from this window's p95.
	SLO telemetry.SLOConfig
}

func (c Config) withDefaults() Config {
	if len(c.Langs) == 0 {
		c.Langs = Languages()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.TenantLimit == 0 {
		c.TenantLimit = 32
	}
	return c
}

const (
	// maxBody bounds request bodies in bytes; a larger body is answered
	// 413.
	maxBody = 32 << 20
	// readyFraction is the backlog fraction of MaxQueue at or above which
	// /readyz answers 503 (the load balancer's cue to route elsewhere)
	// while /v1/* still serves: readiness degrades before shedding starts.
	readyFraction = 0.9
	// flightRecent and flightSlowest size the /debug/diffz flight
	// recorder: the last-N ring and the slowest-K retention set.
	flightRecent  = 128
	flightSlowest = 16
)

// langService is one served language: its schema, its engine (own scratch
// pool and counters), its worker slots, and the ref table mapping hex
// content digests to uploaded trees, the one copy of each the server keeps.
type langService struct {
	name string
	sch  *sig.Schema
	eng  *engine.Engine
	// slots holds one token per running diff, so at most Workers diffs
	// run at once.
	slots chan struct{}

	refMu sync.RWMutex
	refs  map[string]*tree.Node
}

// Server is the diff service: an http.Handler exposing the engine over
// versioned JSON, with admission control and graceful drain. Each job runs
// on its own request goroutine once a worker slot of its language is
// free. Create one with NewServer; it is ready immediately.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	langs     map[string]*langService
	langNames []string
	m         svcMetrics

	// draining flips once, in Drain, which then closes drained to answer
	// every job still waiting for a slot, and closed once the engines
	// are closed.
	draining atomic.Bool
	drained  chan struct{}
	closed   chan struct{}

	// lameduck flips in Lameduck: /readyz answers 503 (stop routing here)
	// while /v1/* keeps serving — the grace period before Drain in which
	// load balancers observe unreadiness and move traffic away.
	lameduck atomic.Bool

	tenantMu sync.Mutex
	tenants  map[string]int

	flight *telemetry.FlightRecorder
	slo    *telemetry.SLO
}

// NewServer builds a server from the configuration. Unknown language names
// in cfg.Langs are an error.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		langs:   make(map[string]*langService, len(cfg.Langs)),
		tenants: make(map[string]int),
		drained: make(chan struct{}),
		closed:  make(chan struct{}),
		flight:  telemetry.NewFlightRecorder(flightRecent, flightSlowest),
		slo:     telemetry.NewSLO(cfg.SLO),
	}

	for _, name := range cfg.Langs {
		sch := SchemaFor(name)
		if sch == nil {
			return nil, fmt.Errorf("diffserve: unknown language %q (have %v)", name, Languages())
		}
		// Each job reaches the engine as one DiffPair call on its request
		// goroutine; the worker slots are the only limiter.
		ecfg := engine.Config{
			SlowDiffThreshold: cfg.SlowDiffThreshold,
			Spans:             cfg.Spans,
			Logger:            cfg.Logger,
			Faults:            cfg.Faults,
		}
		if !cfg.DisableFallback {
			ecfg.Fallback = engine.FallbackRootReplace
		}
		// Every diff lands in the flight recorder; the JSONL sink is
		// optional on top.
		tw := cfg.Trace
		ecfg.Observer = func(ev engine.DiffEvent) {
			rec := ev.TraceRecord()
			s.flight.Record(rec)
			if tw != nil {
				_ = tw.Write(rec)
			}
		}
		s.langs[name] = &langService{
			name:  name,
			sch:   sch,
			eng:   engine.New(sch, ecfg),
			slots: make(chan struct{}, cfg.Workers),
			refs:  make(map[string]*tree.Node),
		}
		s.langNames = append(s.langNames, name)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", telemetry.Handler(s))
	s.mux.Handle("GET /debug/diffz", s.flight.Handler())
	return s, nil
}

// ServeHTTP dispatches with a last-resort panic recovery: engine worker
// isolation already contains per-diff panics, so anything reaching here is
// a handler bug — answered with 500, logged, and the process keeps
// serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			logger := s.cfg.Logger
			if logger == nil {
				logger = slog.Default()
			}
			logger.LogAttrs(r.Context(), slog.LevelError, "panic serving request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Any("panic", v))
			s.m.serverErrors.Add(1)
			writeHTTPError(w, &httpError{
				status: http.StatusInternalServerError,
				werr:   WireError{Kind: ErrKindInternal, Message: fmt.Sprintf("internal error: %v", v)},
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Lameduck marks the server unready without refusing work: /readyz flips
// to 503 so load balancers stop routing here, while /v1/* keeps serving
// whatever still arrives. Call it on the shutdown signal, wait one
// health-check interval for the balancers to notice, then Drain — the
// ordering that turns a restart into zero shed requests. Idempotent.
func (s *Server) Lameduck() { s.lameduck.Store(true) }

// Drain shuts the service down gracefully: new requests and jobs still
// waiting for a worker slot are answered with a clean draining error (HTTP
// 503), diffs already running complete, the engines are closed, and the
// ref tables are emptied, releasing every uploaded tree. A job that takes
// its slot after its engine closed fails with kind draining too. ctx
// bounds only how long Drain waits for the running diffs, each of which
// DiffTimeout also bounds: on expiry Drain returns the context's error,
// and the engines still close as soon as their last diff ends. Drain is
// idempotent; concurrent calls all wait for the same engine close.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drained)
		go func() {
			for _, name := range s.langNames {
				ls := s.langs[name]
				_ = ls.eng.Close() // waits for running diffs; always nil
				// clear, not nil: a request admitted before the drain may
				// still be resolving its trees.
				ls.refMu.Lock()
				clear(ls.refs)
				ls.refMu.Unlock()
			}
			close(s.closed)
		}()
	}
	select {
	case <-s.closed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("diffserve: drain: %w", context.Cause(ctx))
	}
}

// Snapshot returns every language engine's counters.
func (s *Server) Snapshot() map[string]engine.Snapshot {
	out := make(map[string]engine.Snapshot, len(s.langs))
	for name, ls := range s.langs {
		out[name] = ls.eng.Snapshot()
	}
	return out
}

// refTrees counts the uploaded trees the ref tables hold, over every
// served language.
func (s *Server) refTrees() int {
	n := 0
	for _, ls := range s.langs {
		ls.refMu.RLock()
		n += len(ls.refs)
		ls.refMu.RUnlock()
	}
	return n
}

// traceContext establishes the distributed-trace context a request runs
// under and opens its server span. The caller's W3C traceparent header is
// continued when present and well-formed; otherwise a fresh trace starts.
// With no span sink configured the span is nil (every Span method is
// nil-safe) but the returned context is still valid, so responses, logs,
// and trace records correlate even when nothing records spans. Callers
// must End the span (nil-safe) when the request completes.
func (s *Server) traceContext(r *http.Request, name string) (*telemetry.Span, telemetry.SpanContext) {
	parent, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	span := telemetry.StartSpan(s.cfg.Spans, parent, name)
	if span != nil {
		return span, span.Context()
	}
	if parent.Valid() {
		// Propagate the caller's context unchanged: diffs run "under" the
		// caller's span as far as correlation is concerned.
		return nil, parent
	}
	return nil, telemetry.NewSpanContext()
}

// finish accounts for one diff request once it is answered: the
// latency histogram, the SLO window, and exactly one outcome counter,
// chosen by the answer's status and error kind. Sheds and drain refusals
// are deliberate load management, not failures, so the SLO counts them as
// available. status 0 means the handler panicked before answering;
// ServeHTTP's recovery answers and counts that.
func (s *Server) finish(start time.Time, status int, kind string) {
	d := time.Since(start)
	s.m.latency.Record(d.Nanoseconds())
	s.slo.Observe(d, status != 0 && (status < http.StatusInternalServerError || kind == ErrKindDraining))
	switch {
	case status == 0:
	case kind == ErrKindSaturated:
		s.m.sheds.Add(1)
	case kind == ErrKindDraining:
		s.m.drainRejects.Add(1)
	case status < 400:
		s.m.ok.Add(1)
	case status < 500:
		s.m.clientErrors.Add(1)
	default:
		s.m.serverErrors.Add(1)
	}
}

// --- admission control ---

// admit decides on a request's one job: drain refusal, the per-tenant
// concurrency cap, and queue backpressure against the pending jobs, which
// count every admitted job once, waiting or running, until its request is
// answered. On success the tenant slot and the job are held; the returned
// func gives both back.
func (s *Server) admit(r *http.Request) (release func(), herr *httpError) {
	if s.draining.Load() {
		return nil, &httpError{
			status: http.StatusServiceUnavailable,
			werr:   WireError{Kind: ErrKindDraining, Message: errDraining.Error()},
		}
	}
	tenant := r.Header.Get("X-Diffd-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if s.cfg.TenantLimit > 0 {
		s.tenantMu.Lock()
		if s.tenants[tenant] >= s.cfg.TenantLimit {
			s.tenantMu.Unlock()
			return nil, s.shed(1, fmt.Sprintf("tenant %q is at its concurrency limit (%d)", tenant, s.cfg.TenantLimit))
		}
		s.tenants[tenant]++
		s.tenantMu.Unlock()
	}
	release = func() {
		s.m.pending.Add(-1)
		if s.cfg.TenantLimit > 0 {
			s.tenantMu.Lock()
			if s.tenants[tenant]--; s.tenants[tenant] <= 0 {
				delete(s.tenants, tenant)
			}
			s.tenantMu.Unlock()
		}
	}
	if pending := int(s.m.pending.Add(1)); pending > s.cfg.MaxQueue {
		release()
		backlog := pending - 1
		return nil, s.shed(backlog, fmt.Sprintf("queue full (%d backlogged, limit %d)", backlog, s.cfg.MaxQueue))
	}
	return release, nil
}

// shed builds a 429 saturated answer carrying the retry advice for a
// backlog of the given size.
func (s *Server) shed(backlog int, msg string) *httpError {
	return &httpError{
		status: http.StatusTooManyRequests,
		werr: WireError{Kind: ErrKindSaturated, Message: msg,
			RetryAfterMS: s.retryAfter(backlog).Milliseconds()},
	}
}

// retryAfter estimates when a shed caller should come back: the backlog
// drains at roughly workers/p95 jobs per second, where p95 is the
// request-latency quantile of the SLO's rolling window — a tail-biased
// estimate that, unlike the all-time mean, recovers after a transient
// spike ages out of the window and reflects load the shed caller will
// actually contend with. Clamped to [1s, 30s]; with no history yet the
// floor applies.
func (s *Server) retryAfter(backlog int) time.Duration {
	p95 := s.slo.Snapshot().P95
	// Float arithmetic with an early cap: a pathological p95 (the top
	// histogram bucket) times a deep backlog must saturate, not overflow.
	est := time.Duration(min(float64(p95)*float64(backlog)/float64(s.cfg.Workers), float64(30*time.Second)))
	if est < time.Second {
		est = time.Second
	}
	return est.Round(time.Second)
}

// errDraining refuses a job still waiting for a worker slot when the drain
// begins, and names the refusal of requests arriving after it.
var errDraining = fmt.Errorf("server is draining: %w", derrors.ErrServiceUnavailable)

// run diffs one admitted job on the calling goroutine once a worker slot
// of its language is free. It gives up on the drain or the end of ctx,
// whichever comes first; a job abandoned with ctx never runs. A job that
// took its slot runs under a context of its own, not ctx, so a started
// diff completes whether or not its caller is still listening. That
// context carries trace as the diff's trace parent and, from the slot on,
// Config.DiffTimeout's deadline.
func (s *Server) run(ctx context.Context, trace telemetry.SpanContext, ls *langService, p engine.Pair) engine.PairResult {
	admitted := time.Now()
	select {
	case ls.slots <- struct{}{}:
	case <-s.drained:
		return engine.PairResult{Err: errDraining}
	case <-ctx.Done():
		return engine.PairResult{Err: ctx.Err()}
	}
	defer func() { <-ls.slots }()
	dctx := telemetry.ContextWithSpanContext(context.Background(), trace)
	if d := s.cfg.DiffTimeout; d > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeoutCause(dctx, d, fmt.Errorf("%w (limit %v)", derrors.ErrDiffTimeout, d))
		defer cancel()
	}
	// The queue span covers the wait from admission for a free slot.
	telemetry.StartSpanAt(s.cfg.Spans, trace, "diffserve.queue", admitted).End()
	return ls.eng.DiffPair(dctx, p)
}

// --- tree resolution ---

// hexRef is the wire name of an uploaded tree: the hex of its exact
// (structure+literals) content digest, which is URI-independent, so
// client- and server-side copies of one tree agree on it.
func hexRef(n *tree.Node) string { return hex.EncodeToString(n.AppendExactHash(nil)) }

// resolveTree turns a TreeInput into a tree: a Ref is a table lookup (miss
// → unknown_ref, the client's cue to re-send the S-expression), and an
// S-expression is decoded against the language schema and stored under
// its ref for later requests. The first tree stored under a ref wins, so
// equal uploads resolve to one pointer and the engine's identical-pair
// short-circuit fires. Each tree is numbered in post-order from 1 by an
// allocator of its own. A diff's Pair.Alloc is nil, so its loads are
// numbered past every URI of its source, and truediff never emits a
// target URI, so overlapping numberings are harmless and a script depends
// only on its pair, never on the server's history.
func (s *Server) resolveTree(ls *langService, in TreeInput, what string) (*tree.Node, string, *WireError) {
	if in.Ref != "" {
		ls.refMu.RLock()
		n := ls.refs[in.Ref]
		ls.refMu.RUnlock()
		if n == nil {
			return nil, "", &WireError{Kind: ErrKindUnknownRef, Message: fmt.Sprintf("%s: unknown ref %q", what, in.Ref)}
		}
		return n, in.Ref, nil
	}
	if in.SExpr == "" {
		return nil, "", &WireError{Kind: ErrKindBadRequest, Message: fmt.Sprintf("%s: neither sexpr nor ref given", what)}
	}
	n, err := tree.DecodeSExpr(in.SExpr, ls.sch, uri.NewAllocator())
	if err != nil {
		return nil, "", &WireError{Kind: ErrKindBadRequest, Message: fmt.Sprintf("%s: %v", what, err)}
	}
	ref := hexRef(n)
	ls.refMu.Lock()
	if old := ls.refs[ref]; old != nil {
		n = old
	} else {
		ls.refs[ref] = n
	}
	ls.refMu.Unlock()
	return n, ref, nil
}

// --- handlers ---

// httpError is a request failure ready to write: HTTP status and typed
// wire error.
type httpError struct {
	status int
	werr   WireError
}

// handleDiff serves POST /v1/diff, in order: the request span, decode,
// admission, tree resolution, the diff, the answer and its accounting. A
// failed diff is answered with its error's status.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.requests.Add(1)
	span, rctx := s.traceContext(r, "diffserve.request")
	defer span.End()
	var status int
	var kind string
	defer func() { s.finish(start, status, kind) }()
	fail := func(herr *httpError) {
		status, kind = herr.status, herr.werr.Kind
		writeHTTPError(w, herr)
	}

	var req DiffRequest
	ls, herr := s.decode(w, r, &req)
	if herr != nil {
		fail(herr)
		return
	}
	span.SetAttr("lang", ls.name)
	release, herr := s.admit(r)
	if herr != nil {
		fail(herr)
		return
	}
	defer release()

	resp := s.respond(r.Context(), rctx, ls, &req)
	if r.Context().Err() != nil {
		status = 499 // client closed request; observed, not written
		return
	}
	resp.SchemaVersion, resp.TraceID = WireVersion, rctx.Trace.String()
	status = http.StatusOK
	if resp.Error != nil {
		status, kind = errStatus(resp.Error.Kind), resp.Error.Kind
	}
	writeJSON(w, status, &resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SnapshotResponse{
		SchemaVersion: WireVersion,
		Draining:      s.draining.Load(),
		Langs:         s.Snapshot(),
	})
}

// handleHealthz is process liveness and nothing else: it answers 200 as
// long as the process can serve HTTP — including while draining, because
// a draining process is alive and must not be killed mid-drain by a
// liveness probe. Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is the routing signal: 503 while draining, in lame-duck,
// or saturated past readyFraction of MaxQueue — in each case the right
// move for a load balancer is to send traffic elsewhere, before this
// server has to shed it with 429s. The body names the reason.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.lameduck.Load():
		http.Error(w, "lameduck", http.StatusServiceUnavailable)
	case s.saturated():
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	}
}

// saturated reports whether the pending jobs have crossed the
// readiness threshold (readyFraction of MaxQueue) — below the shed point
// on purpose, so routing reacts before admission control must.
func (s *Server) saturated() bool {
	return float64(s.m.pending.Load()) >= readyFraction*float64(s.cfg.MaxQueue)
}

// decode reads and validates a diff request into req: body size cap, JSON
// decode, schema version, and language lookup. A body past maxBody is
// answered 413, and the server closes the connection after the answer.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req *DiffRequest) (*langService, *httpError) {
	badRequest := func(status int, msg string) *httpError {
		return &httpError{status: status, werr: WireError{Kind: ErrKindBadRequest, Message: msg}}
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, badRequest(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		}
		return nil, badRequest(http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
	}
	if err := CheckWireVersion(req.SchemaVersion); err != nil {
		return nil, badRequest(http.StatusBadRequest, err.Error())
	}
	ls := s.langs[req.Lang]
	if ls == nil {
		return nil, &httpError{
			status: http.StatusNotFound,
			werr:   WireError{Kind: ErrKindUnknownLang, Message: fmt.Sprintf("unknown lang %q (serving %v)", req.Lang, s.langNames)},
		}
	}
	return ls, nil
}

// respond resolves an admitted request's trees, runs its diff under ctx
// and builds the answer: script + stats on success (including fallback
// results, which succeed with Stats.Fallback set), a typed error
// otherwise.
func (s *Server) respond(ctx context.Context, trace telemetry.SpanContext, ls *langService, req *DiffRequest) DiffResponse {
	src, srcRef, werr := s.resolveTree(ls, req.Source, "source")
	if werr != nil {
		return DiffResponse{Error: werr}
	}
	dst, dstRef, werr := s.resolveTree(ls, req.Target, "target")
	if werr != nil {
		return DiffResponse{Error: werr}
	}
	resp := DiffResponse{SourceRef: srcRef, TargetRef: dstRef}
	pr := s.run(ctx, trace, ls, engine.Pair{Source: src, Target: dst, Label: req.Label})
	if pr.Err != nil {
		resp.Error = &WireError{Kind: errKind(pr.Err), Message: pr.Err.Error()}
		return resp
	}
	ws, err := EncodeScript(pr.Result.Script)
	if err != nil {
		resp.Error = &WireError{Kind: ErrKindInternal, Message: err.Error()}
		return resp
	}
	resp.Script, resp.Stats = ws, StatsToWire(pr.Stats)
	if req.WantPatched && pr.Result.Patched != nil {
		resp.PatchedSExpr = tree.EncodeSExpr(pr.Result.Patched)
	}
	return resp
}

// errKind classifies an engine error into its wire kind.
func errKind(err error) string {
	switch {
	case errors.Is(err, derrors.ErrDiffPanic):
		return ErrKindPanic
	case errors.Is(err, derrors.ErrDiffTimeout):
		return ErrKindTimeout
	case errors.Is(err, derrors.ErrIllTyped):
		return ErrKindIllTyped
	case errors.Is(err, derrors.ErrServiceUnavailable), errors.Is(err, derrors.ErrEngineClosed):
		return ErrKindDraining
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ErrKindCancelled
	case errors.Is(err, derrors.ErrNilTree), errors.Is(err, derrors.ErrSchemaMismatch):
		return ErrKindBadRequest
	default:
		return ErrKindInternal
	}
}

// errStatus maps the wire error kind of a failed diff to the HTTP status
// of its response.
func errStatus(kind string) int {
	switch kind {
	case ErrKindBadRequest:
		return http.StatusBadRequest
	case ErrKindUnknownLang, ErrKindUnknownRef:
		return http.StatusNotFound
	case ErrKindDraining:
		return http.StatusServiceUnavailable
	case ErrKindTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeHTTPError answers with the wire error, and with a Retry-After
// header, in whole seconds, when the error carries retry advice.
func writeHTTPError(w http.ResponseWriter, herr *httpError) {
	if ms := herr.werr.RetryAfterMS; ms > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	}
	writeJSON(w, herr.status, ErrorResponse{SchemaVersion: WireVersion, Error: herr.werr})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
