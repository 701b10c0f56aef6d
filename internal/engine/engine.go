// Package engine runs truediff at corpus scale: batches of (source, target)
// tree pairs are fanned over a bounded worker pool, and per-diff working
// state (subtree registries, assignment maps, edit buffers, selection
// heaps) is recycled through a sync.Pool instead of reallocated per diff.
//
// The engine is the concurrency boundary of the system: a Differ is
// immutable and an Engine adds only concurrency-safe state on top (the
// scratch pool, atomic counters), so one Engine may be shared freely
// between goroutines. The caller owns every URI: the engine keeps no
// trees and no URI space of its own, so a diff's script depends only on
// its pair. Batches run through DiffBatch, which honours context
// cancellation; cumulative counters are read with Snapshot.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
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
// diff options, one worker per CPU.
type Config struct {
	// Workers bounds the goroutines a DiffBatch fans out over. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
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
	// It runs on worker goroutines: keep it cheap and concurrency-safe
	// (telemetry.TraceWriter is; so is recording into histograms).
	Observer func(DiffEvent)
	// SlowDiffThreshold enables slow-diff logging: completed diffs whose
	// wall time meets or exceeds it are counted (Snapshot.SlowDiffs) and
	// logged at warn level through Logger, or slog.Default() when Logger is
	// nil. Zero disables the check.
	SlowDiffThreshold time.Duration
	// Spans, when non-nil, turns on distributed tracing: every diff runs
	// under an "engine.diff" span (parented on Pair.Trace when valid) and
	// the four truediff phases are synthesized into child spans. Nil (the
	// default) costs nothing on the diff path beyond a pointer comparison.
	Spans telemetry.SpanSink
	// Logger, when non-nil, receives structured records for noteworthy
	// diffs — failures (error level), fallbacks and slow diffs (warn) —
	// with trace_id/span_id correlation when the pair carried a trace.
	// Routine successful diffs are never logged; use Observer for those.
	// Without a Logger only slow diffs are logged, through slog.Default().
	Logger *slog.Logger

	// DiffTimeout bounds each individual diff: a diff still running when
	// the deadline passes is aborted at its next cancellation checkpoint
	// with an error matching derrors.ErrDiffTimeout. The deadline starts
	// when the diff starts (not when the batch does), so large batches
	// don't starve late pairs. Zero disables the per-diff deadline.
	DiffTimeout time.Duration
	// Fallback selects the graceful-degradation policy for diffs that
	// panic, overrun DiffTimeout, or emit an ill-typed script. See
	// FallbackMode.
	Fallback FallbackMode
	// Faults, when non-nil, arms deterministic fault injection at the
	// engine's sites (FaultSiteDiff, FaultSiteCheckpoint) and is forwarded
	// to patching helpers. Intended for resilience tests; nil in
	// production.
	Faults *faultinject.Injector
}

// Engine diffs batches of tree pairs concurrently. Create one with New and
// share it between goroutines; all methods are concurrency-safe.
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

// Close shuts the engine down: it waits for in-flight Diff and DiffBatch
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

func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Pair is one diffing task of a batch.
type Pair struct {
	Source *tree.Node
	Target *tree.Node
	// Alloc supplies fresh URIs for nodes the diff loads. It must dominate
	// every URI in Source (pass the allocator the trees were built or
	// copied with). If nil, the diff numbers its loads past every URI of
	// Source, the rule truediff.Differ.Diff applies to a nil allocator, so
	// a pair's script is the same through the engine, the facade's Diff
	// and diffd. Allocators are not concurrency-safe, so pairs of one batch
	// must not share an Alloc.
	Alloc *uri.Allocator
	// Label identifies the pair in observer events and trace records (for
	// example a file path). The engine does not interpret it.
	Label string
	// Trace, when valid, is the distributed-trace context this pair runs
	// under: the engine's "engine.diff" span is parented on it, and
	// observer events carry it for log and trace-record correlation. The
	// context travels with the pair (not the batch ctx) because batching
	// layers deliberately detach pairs from their request contexts.
	Trace telemetry.SpanContext
}

// DiffStats instruments one diff of a batch.
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

// Diff runs a single diff through the engine: scratch state is drawn from
// the pool and the per-diff counters feed Snapshot. See truediff.Differ.Diff
// for the contract on source, target, and alloc. A nil ctx is treated as
// context.Background(), matching DiffBatch; a cancellable ctx (or a
// configured DiffTimeout) is polled at cancellation checkpoints, so the
// diff aborts mid-algorithm rather than only between calls.
func (e *Engine) Diff(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator) (*truediff.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.life.active.Done()
	pr := e.diffOne(ctx, Pair{Source: source, Target: target, Alloc: alloc})
	return pr.Result, pr.Err
}

// DiffBatch diffs every pair, fanning the work over the engine's worker
// pool, and returns one result per pair, index-aligned with pairs. The
// calling goroutine is one of the workers, so a batch of one pair starts
// no goroutine. A failed pair carries its error in its slot; DiffBatch
// itself only returns an error when ctx is cancelled, in which case pairs
// that no worker claimed have their Err set to the context error, and
// pairs that were mid-diff abort at their next cancellation checkpoint
// with the context's cause in their slot. Every pair therefore ends with
// exactly one of Result or Err set. A nil ctx is treated as
// context.Background(), matching Diff.
func (e *Engine) DiffBatch(ctx context.Context, pairs []Pair) ([]PairResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.life.active.Done()
	e.m.batches.Add(1)
	results := make([]PairResult, len(pairs))
	if len(pairs) == 0 {
		return results, ctx.Err()
	}

	workers := min(e.workers(), len(pairs))
	// The queue-depth gauge counts pairs submitted but not yet claimed by a
	// worker; every exit path below drains it back to its prior level.
	e.m.queueDepth.Add(int64(len(pairs)))
	started := time.Now()
	// Workers claim pair indices in order from next until none is left or
	// ctx is done. Each slot of results is written by exactly one worker,
	// so no further synchronization is needed beyond wg.Wait.
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= int64(len(pairs)) {
				return
			}
			e.m.queueDepth.Add(-1)
			results[i] = e.diffOne(ctx, pairs[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Capacity is what the pool could have diffed this batch (elapsed time
	// across every worker); Snapshot.Utilization divides busy time by it.
	e.m.capacityNanos.Add(uint64(time.Since(started).Nanoseconds()) * uint64(workers))

	if claimed := next.Load(); claimed < int64(len(pairs)) {
		err := fmt.Errorf("engine: batch cancelled: %w", context.Cause(ctx))
		for i := claimed; i < int64(len(pairs)); i++ {
			results[i].Err = err
		}
		e.m.queueDepth.Add(claimed - int64(len(pairs))) // never claimed by a worker
		return results, err
	}
	return results, nil
}

// diffOne runs one pair and records it. With Config.Spans set the diff
// runs under an "engine.diff" span, and its phases become child spans
// through a context-carried tracer.
func (e *Engine) diffOne(ctx context.Context, p Pair) PairResult {
	// Labels are caller-supplied (e.g. by remote diffserve clients) and
	// fan out to every observability surface — span attributes, trace
	// records, flight-recorder pages, Prometheus label values. Bound and
	// neutralize them once here.
	p.Label = telemetry.SanitizeLabel(p.Label)
	span := telemetry.StartSpan(e.cfg.Spans, p.Trace, "engine.diff")
	if span != nil {
		// Children (phase spans, the observer's trace record) hang off the
		// engine span, not the caller's request span.
		p.Trace = span.Context()
		ctx = telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(e.cfg.Spans, p.Trace))
	}
	pr := e.diffPair(ctx, p)
	e.record(DiffEvent{Label: p.Label, Trace: p.Trace, Stats: pr.Stats, Err: pr.Err}, span)
	return pr
}

// diffPair executes one task with pooled scratch state. The diff runs
// inside the panic-isolation boundary (runDiff) with a cancellation
// checkpoint derived from ctx, Config.DiffTimeout, and the fault injector;
// failures eligible for graceful degradation are served a synthesized
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
		// The collector is touched only by this worker goroutine: the
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
