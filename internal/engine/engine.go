// Package engine runs truediff one pair per call and accounts for every
// diff: per-diff working state (subtree registries, assignment maps, edit
// buffers, selection heaps) is recycled through a sync.Pool instead of
// reallocated per diff, and each diff, however it ends, lands once in the
// counters, histograms, spans, logs and Config.Observer.
//
// A Differ is immutable and an Engine adds only concurrency-safe state on
// top (the scratch pool, atomic counters), so one Engine may be called
// from many goroutines at once. That is how a caller diffs in parallel,
// as diffd does with one goroutine per request. The caller owns every
// URI: the engine keeps no trees and no URI space of its own, so a diff's
// script depends only on its pair. Cumulative counters are read with
// Snapshot.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/derrors"
	"repro/internal/faultinject"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// Config configures an Engine. The zero value is usable: paper-standard
// diff options.
type Config struct {
	// Diff configures the underlying differ (equivalence mode, selection
	// order, literal-mismatch handling).
	Diff truediff.Options

	// Explain, when true, collects per-edit provenance for every diff: each
	// successful PairResult carries a truediff.Explanation whose records are
	// index-aligned with the script's edits (see truediff.ContextWithExplain).
	// Fallback (root-replacement) results carry no explanation — the real
	// diff never finished. Off (the default), the diff path pays nothing.
	Explain bool

	// Observer, when non-nil, is called synchronously after every diff —
	// successful, failed, or short-circuited — with that diff's event.
	// It runs on each diff's calling goroutine: keep it cheap and
	// concurrency-safe (telemetry.TraceWriter is; so is recording into
	// histograms).
	Observer func(DiffEvent)
	// SlowDiffThreshold enables slow-diff logging: completed diffs whose
	// wall time meets or exceeds it are counted (Snapshot.SlowDiffs) and
	// logged at warn level through Logger, or slog.Default() when Logger is
	// nil. Zero disables the check.
	SlowDiffThreshold time.Duration
	// Spans, when non-nil, turns on distributed tracing: every diff runs
	// under an "engine.diff" span (parented on the trace context its
	// context carries, telemetry.ContextWithSpanContext) and the four
	// truediff phases are synthesized into child spans. Nil (the default)
	// costs nothing on the diff path beyond a pointer comparison.
	Spans telemetry.SpanSink
	// Logger, when non-nil, receives structured records for noteworthy
	// diffs — failures (error level), fallbacks and slow diffs (warn) —
	// with trace_id/span_id correlation when the diff's context carried a
	// trace.
	// Routine successful diffs are never logged; use Observer for those.
	// Without a Logger only slow diffs are logged, through slog.Default().
	Logger *slog.Logger

	// Fallback selects the graceful-degradation policy for diffs that
	// panic, overrun a per-diff deadline, or emit an ill-typed script. See
	// FallbackMode.
	Fallback FallbackMode
	// Faults, when non-nil, arms deterministic fault injection at the
	// engine's site, FaultSiteDiff. Intended for resilience tests; nil in
	// production.
	Faults *faultinject.Injector
}

// Engine diffs tree pairs, one per call. Create one with New and share it
// between goroutines; all methods are concurrency-safe.
type Engine struct {
	sch    *sig.Schema
	differ *truediff.Differ
	cfg    Config
	pool   sync.Pool // of *truediff.Scratch
	m      metrics
	h      histograms

	// life tracks the engine's shutdown state: begin/end bracket every
	// entry point, and Close flips closed then waits for the in-flight
	// count to drain.
	life struct {
		mu     sync.Mutex
		closed bool
		active sync.WaitGroup
	}
}

// histograms holds the engine-level distributions: overall diff latency,
// per-phase latency (merged from scratch-local timings on each diff's
// completion), compound edit counts, and input tree sizes. All lock-free;
// see telemetry.Histogram for the bucket layout.
type histograms struct {
	latency telemetry.Histogram // per-diff wall time, nanoseconds
	phases  [telemetry.NumPhases]telemetry.Histogram
	edits   telemetry.Histogram // compound edits per script
	nodes   telemetry.Histogram // input tree sizes (two per diff)

	// reuse is the per-diff reuse ratio in permille, so the integer
	// histogram resolves it; it is exposed with Scale 1e-3.
	reuse telemetry.Histogram
}

// New returns an Engine for trees of the given schema.
func New(sch *sig.Schema, cfg Config) *Engine {
	e := &Engine{
		sch:    sch,
		differ: truediff.NewWithOptions(sch, cfg.Diff),
		cfg:    cfg,
	}
	e.pool.New = func() any {
		e.m.poolMisses.Add(1)
		return truediff.NewScratch()
	}
	return e
}

// Schema returns the schema the engine diffs against.
func (e *Engine) Schema() *sig.Schema { return e.sch }

// begin registers one in-flight entry-point call, failing if Close has
// already begun. Every successful begin must be paired with e.life.active.Done().
func (e *Engine) begin() error {
	e.life.mu.Lock()
	defer e.life.mu.Unlock()
	if e.life.closed {
		return fmt.Errorf("engine: %w", derrors.ErrEngineClosed)
	}
	e.life.active.Add(1)
	return nil
}

// Close shuts the engine down: it waits for in-flight Diff and DiffPair
// calls to complete. Calls entering after Close has begun fail with an
// error matching derrors.ErrEngineClosed. Close is idempotent and always
// returns nil; the error result exists so the engine satisfies the same
// service interface as remote clients, whose Close can genuinely fail.
func (e *Engine) Close() error {
	e.life.mu.Lock()
	already := e.life.closed
	e.life.closed = true
	e.life.mu.Unlock()
	if already {
		return nil
	}
	e.life.active.Wait()
	return nil
}

// Pair is one diffing task.
type Pair struct {
	Source *tree.Node
	Target *tree.Node
	// Alloc supplies fresh URIs for nodes the diff loads. It must dominate
	// every URI in Source (pass the allocator the trees were built or
	// copied with). If nil, the diff numbers its loads past every URI of
	// Source, the rule truediff.Differ.Diff applies to a nil allocator, so
	// a pair's script is the same through the engine, the facade's Diff
	// and diffd. Allocators are not concurrency-safe, so pairs diffed
	// concurrently must not share an Alloc.
	Alloc *uri.Allocator
	// Label identifies the pair in observer events and trace records (for
	// example a file path). The engine does not interpret it.
	Label string
}

// DiffStats instruments one diff.
type DiffStats struct {
	// Wall is the time the diff itself took (excluding queueing).
	Wall time.Duration
	// Edits is the script's compound edit count, the paper's conciseness
	// metric.
	Edits int
	// SourceSize and TargetSize count the nodes of the input trees.
	SourceSize int
	TargetSize int
	// ReuseRatio is the fraction of target nodes obtained by reusing
	// source nodes rather than loading fresh ones, (TargetSize − loads) /
	// TargetSize: 1 means the diff moved and updated existing structure
	// only, 0 means it rebuilt everything.
	ReuseRatio float64
	// Phases breaks Wall down into the four truediff steps (all zero for
	// short-circuited pairs, where no step ran).
	Phases telemetry.PhaseTimes
	// Identical marks pairs whose endpoints are the same tree: the diff
	// short-circuited to an empty script.
	Identical bool
	// Fallback marks pairs served by graceful degradation: the real diff
	// panicked, timed out, or emitted an ill-typed script, and the result
	// is a synthesized root-replacement script instead (Edits and
	// ReuseRatio describe that script, so expect ReuseRatio 0). Always
	// false under FallbackNone.
	Fallback bool
}

// PairResult is the outcome of one diffing task.
type PairResult struct {
	Result *truediff.Result
	Stats  DiffStats
	// Explain is the per-edit provenance of the script, index-aligned with
	// Result.Script.Edits. Non-nil only when Config.Explain is set and the
	// diff completed without fallback.
	Explain *truediff.Explanation
	Err     error
}

// DiffPair diffs one pair with pooled scratch state and accounts for the
// diff once, however it ends. Exactly one of the result's Result and Err
// is set. ctx, nil meaning context.Background(), is the diff's one route
// for cancellation, deadline and trace parent: a done ctx fails the call
// before any work, one that ends mid-diff aborts it with
// context.Cause(ctx), and a deadline whose cause matches
// derrors.ErrDiffTimeout counts in Snapshot.Timeouts and is rescued by
// FallbackRootReplace. With Config.Spans set the diff runs under an
// "engine.diff" span parented on ctx's trace context.
func (e *Engine) DiffPair(ctx context.Context, p Pair) PairResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return PairResult{Err: fmt.Errorf("engine: %w", err)}
	}
	if err := e.begin(); err != nil {
		return PairResult{Err: err}
	}
	defer e.life.active.Done()
	// Labels are caller-supplied (e.g. by remote diffserve clients) and
	// fan out to every observability surface — span attributes, trace
	// records, flight-recorder pages, Prometheus label values. Bound and
	// neutralize them once here.
	p.Label = telemetry.SanitizeLabel(p.Label)
	trace := telemetry.SpanContextFromContext(ctx)
	span := telemetry.StartSpan(e.cfg.Spans, trace, "engine.diff")
	if span != nil {
		// Children (phase spans, the observer's trace record) hang off the
		// engine span, not the caller's request span.
		trace = span.Context()
		ctx = telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(e.cfg.Spans, trace))
	}
	pr := e.diffPair(ctx, p)
	e.record(DiffEvent{Label: p.Label, Trace: trace, Stats: pr.Stats, Err: pr.Err}, span)
	return pr
}

// Diff is DiffPair for a pair given by its parts. See truediff.Differ.Diff
// for the contract on source, target, and alloc.
func (e *Engine) Diff(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator) (*truediff.Result, error) {
	pr := e.DiffPair(ctx, Pair{Source: source, Target: target, Alloc: alloc})
	return pr.Result, pr.Err
}

// diffPair executes one task with pooled scratch state. The diff runs
// inside the panic-isolation boundary (runDiff) under ctx; failures
// eligible for graceful degradation are served a synthesized
// root-replacement script instead when Config.Fallback asks for it.
func (e *Engine) diffPair(ctx context.Context, p Pair) PairResult {
	if p.Source != nil && p.Source == p.Target {
		// One tree on both sides (diffd's ref table resolves equal uploads
		// to one pointer): the minimal script is empty and the patched
		// tree is the source itself.
		st := DiffStats{
			SourceSize: p.Source.Size(),
			TargetSize: p.Target.Size(),
			ReuseRatio: 1,
			Identical:  true,
		}
		pr := PairResult{
			Result: &truediff.Result{Script: &truechange.Script{}, Patched: p.Source},
			Stats:  st,
		}
		if e.cfg.Explain {
			// An empty script explains itself; the empty record set keeps
			// the index alignment invariant for downstream consumers.
			pr.Explain = &truediff.Explanation{
				SourceSize: st.SourceSize,
				TargetSize: st.TargetSize,
				Edits:      []truediff.EditProvenance{},
			}
		}
		return pr
	}

	e.m.poolGets.Add(1)
	s := e.pool.Get().(*truediff.Scratch)
	defer e.pool.Put(s)

	var ecol *truediff.ExplainCollector
	if e.cfg.Explain {
		// The collector is touched only by this call's goroutine: the
		// differ delivers into it synchronously at the end of the diff.
		ecol = &truediff.ExplainCollector{}
		ctx = truediff.ContextWithExplain(ctx, ecol)
	}

	start := time.Now()
	res, err := e.runDiff(ctx, p, s)
	if err == nil {
		err = e.wellTypedOut(res)
	}
	fellBack := false
	if err != nil {
		e.classify(err)
		if e.shouldFallback(err) {
			res, err = e.fallback(p, err)
			fellBack = err == nil
		}
	}
	wall := time.Since(start)
	if err != nil {
		return PairResult{Err: err}
	}

	cs := truechange.ComputeStats(res.Script)
	target := p.Target.Size() // at least 1: a tree has a root
	st := DiffStats{
		Wall:       wall,
		Fallback:   fellBack,
		Edits:      cs.Compound,
		SourceSize: p.Source.Size(),
		TargetSize: target,
		ReuseRatio: float64(target-cs.Loads) / float64(target),
		Phases:     s.PhaseTimes(),
	}
	pr := PairResult{Result: res, Stats: st}
	if ecol != nil && !fellBack {
		pr.Explain = ecol.Last
	}
	return pr
}

// record is the one place an engine diff is accounted, whichever way it
// ended — normal, short-circuited, failed, or served by fallback: the
// counters and histograms, slow-diff and failure logging, the Observer,
// and the attributes of the "engine.diff" span, which it ends, all read
// ev.
func (e *Engine) record(ev DiffEvent, span *telemetry.Span) {
	st := ev.Stats
	if ev.Err != nil {
		e.m.errors.Add(1)
	} else {
		e.m.diffs.Add(1)
		e.m.edits.Add(uint64(st.Edits))
		e.m.sourceNodes.Add(uint64(st.SourceSize))
		e.m.targetNodes.Add(uint64(st.TargetSize))
		e.m.wallNanos.Add(uint64(st.Wall.Nanoseconds()))
		e.h.latency.Record(st.Wall.Nanoseconds())
		if !st.Identical {
			// A short-circuited pair ran no truediff step.
			for ph, d := range st.Phases {
				e.h.phases[ph].Record(d.Nanoseconds())
			}
		}
		e.h.edits.Record(int64(st.Edits))
		e.h.nodes.Record(int64(st.SourceSize))
		e.h.nodes.Record(int64(st.TargetSize))
		e.h.reuse.Record(int64(st.ReuseRatio * 1000))
	}

	if e.cfg.SlowDiffThreshold > 0 && ev.Err == nil && st.Wall >= e.cfg.SlowDiffThreshold {
		e.m.slowDiffs.Add(1)
		logger := e.cfg.Logger
		if logger == nil {
			logger = slog.Default()
		}
		logEvent(logger, slog.LevelWarn, "slow diff", ev,
			slog.Duration("threshold", e.cfg.SlowDiffThreshold))
	}
	if e.cfg.Logger != nil {
		if ev.Err != nil {
			logEvent(e.cfg.Logger, slog.LevelError, "diff failed", ev)
		} else if st.Fallback {
			logEvent(e.cfg.Logger, slog.LevelWarn, "diff served by fallback", ev)
		}
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer(ev)
	}

	if span != nil {
		if ev.Label != "" {
			span.SetAttr("pair", ev.Label)
		}
		span.SetAttr("source_nodes", st.SourceSize)
		span.SetAttr("target_nodes", st.TargetSize)
		span.SetAttr("edits", st.Edits)
		if st.Identical {
			span.SetAttr("identical", true)
		}
		if st.Fallback {
			span.SetAttr("fallback", true)
		}
		if ev.Err != nil {
			span.SetAttr("err", ev.Err.Error())
		}
		span.End()
	}
}

// logEvent emits one structured record for ev, carrying the pair label,
// trace correlation IDs, and the diff's headline numbers.
func logEvent(logger *slog.Logger, level slog.Level, msg string, ev DiffEvent, extra ...slog.Attr) {
	attrs := make([]slog.Attr, 0, 8+len(extra))
	if ev.Label != "" {
		attrs = append(attrs, slog.String("pair", ev.Label))
	}
	attrs = append(attrs, ev.Trace.SlogAttrs()...)
	attrs = append(attrs,
		slog.Duration("wall", ev.Stats.Wall),
		slog.Int("source_nodes", ev.Stats.SourceSize),
		slog.Int("target_nodes", ev.Stats.TargetSize),
		slog.Int("edits", ev.Stats.Edits),
	)
	if ev.Err != nil {
		attrs = append(attrs, slog.String("err", ev.Err.Error()))
	}
	attrs = append(attrs, extra...)
	logger.LogAttrs(context.Background(), level, msg, attrs...)
}
