// Package structdiff is the public interface of this repository's
// reproduction of "Concise, Type-Safe, and Efficient Structural Diffing"
// (Erdweg, Szabó, Pacak; PLDI 2021). It is the single supported entry
// point: everything an application needs — building typed trees, diffing
// them into truechange edit scripts, patching trees, type-checking
// scripts, and running many diffs through one reusable engine — is
// exported here or in a subpackage (langs/..., corpus, evaluation,
// baselines/..., analysis). The internal/... packages remain importable
// only by this module and may change shape without notice.
//
// # Quick start
//
//	sch := exp.Schema()                  // structdiff/langs/exp
//	b := exp.NewBuilder()
//	one, _ := b.N("Num", int64(1))
//	two, _ := b.N("Num", int64(2))
//	res, err := structdiff.Diff(one, two, structdiff.WithSchema(sch))
//	// res.Script is the edit script, res.Patched the patched tree.
//
// # Many diffs
//
// For many diffs over one schema, create an Engine: it takes one pair per
// call, recycles per-diff scratch state between calls, and accounts for
// every diff in its Snapshot. One Engine is safe to call from many
// goroutines, which is how a caller diffs in parallel. See NewEngine and
// docs/API.md.
package structdiff

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/merge"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// Option configures Diff, Patch, NewDiffer, and NewEngine. Options that do
// not apply to a call are ignored, so one option slice can be shared.
type Option func(*config)

type config struct {
	sch      *sig.Schema
	alloc    *uri.Allocator
	diff     truediff.Options
	slow     time.Duration
	fallback FallbackMode
	faults   *faultinject.Injector
	spans    telemetry.SpanSink
	logger   *slog.Logger
	merge    merge.Policy
	explain  bool
}

func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithSchema sets the schema the trees are typed against. Diff, Patch, and
// InitialScript require it.
func WithSchema(sch *Schema) Option { return func(c *config) { c.sch = sch } }

// WithAllocator supplies the URI allocator fresh URIs are drawn from. It
// must dominate every URI of the (source) tree; pass the allocator the
// tree was built with. Without it, an allocator is derived by reserving
// the source tree's URIs.
func WithAllocator(a *Allocator) Option { return func(c *config) { c.alloc = a } }

// WithEquivalence selects the subtree equivalence mode used to find reuse
// candidates (default StructuralWithLiteralPreference, the paper's choice).
func WithEquivalence(m EquivMode) Option { return func(c *config) { c.diff.Equiv = m } }

// WithSelectionOrder selects the candidate selection order (default
// HighestFirst, the paper's choice).
func WithSelectionOrder(o SelectionOrder) Option { return func(c *config) { c.diff.Order = o } }

// WithUpdateOnLitMismatch lets the edit-computation traversal continue
// across equal-tagged nodes whose literals differ, emitting updates
// instead of replacing the subtree (an ablation of the paper's algorithm).
func WithUpdateOnLitMismatch() Option { return func(c *config) { c.diff.UpdateOnLitMismatch = true } }

// WithSlowDiffThreshold enables slow-diff logging on an Engine: completed
// diffs whose wall time meets or exceeds d are counted (Snapshot.SlowDiffs)
// and logged through log/slog at warn level — to the WithLogger logger, or
// slog.Default() without one. Engine entry points only.
func WithSlowDiffThreshold(d time.Duration) Option { return func(c *config) { c.slow = d } }

// WithFallback selects an Engine's graceful-degradation policy: under
// FallbackRootReplace, a pair whose diff panics, overruns a per-diff
// deadline (a context deadline whose cause matches ErrDiffTimeout, see
// DiffContext), or emits an ill-typed script is served a synthesized
// root-replacement script — maximally verbose, but well-typed by
// construction and guaranteed to patch source into target. Degraded pairs
// are flagged in DiffStats.Fallback and counted in Snapshot.Fallbacks.
// Engine entry points only; the default (FallbackNone) propagates
// failures.
func WithFallback(m FallbackMode) Option { return func(c *config) { c.fallback = m } }

// WithSpans enables distributed tracing: completed spans are delivered to
// sink. DiffContext, and so Explain, records one "structdiff.diff" span
// per call with the four truediff phases as children; an Engine records
// one "engine.diff" span per pair with the phases nested under it. Either
// takes its parent from the context (WithTraceContext), so client-side
// spans join server traces. Tracing is off — and costs nothing — without
// this option. See docs/TRACING.md.
func WithSpans(sink SpanSink) Option { return func(c *config) { c.spans = sink } }

// WithLogger routes an Engine's structured diagnostics — slow diffs,
// failures, fallback rescues — through a log/slog logger. Records carry
// the pair label, timing, sizes, and trace_id/span_id correlation when
// tracing is on. Without it, failures and fallbacks are not logged and
// slow diffs go to slog.Default(). Engine entry points only.
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.logger = l } }

// WithFaultInjection arms deterministic fault injection on an Engine: the
// injector's faults fire at the engine's site, FaultSiteDiff, once per
// diff. Intended for resilience tests and failure-path rehearsal; see
// NewFaultInjector.
func WithFaultInjection(inj *FaultInjector) Option { return func(c *config) { c.faults = inj } }

// Diff computes the truechange edit script that transforms src into dst,
// together with the patched tree. WithSchema is required; WithAllocator,
// WithEquivalence, WithSelectionOrder, and WithUpdateOnLitMismatch apply.
// It is DiffContext with a background context; callers that may need to
// abandon a diff should call DiffContext instead.
//
// Failures are reported via the package's sentinel errors: ErrNoSchema,
// ErrNilTree, ErrSchemaMismatch.
func Diff(src, dst *Node, opts ...Option) (*Result, error) {
	return DiffContext(context.Background(), src, dst, opts...)
}

// DiffContext is the context-first form of Diff: the diff polls ctx on
// entry, between its steps and every 1,024 nodes within them, and aborts
// once ctx is done, returning an error wrapping context.Cause(ctx). So a
// per-diff deadline is a context deadline: one set with
// context.WithTimeoutCause and a cause wrapping ErrDiffTimeout surfaces as
// ErrDiffTimeout, a plain context.WithTimeout as context.DeadlineExceeded.
// A nil ctx is treated as context.Background(), under which DiffContext is
// exactly Diff.
func DiffContext(ctx context.Context, src, dst *Node, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.spans != nil {
		span := telemetry.StartSpan(cfg.spans, telemetry.SpanContextFromContext(ctx), "structdiff.diff")
		defer span.End()
		ctx = telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(cfg.spans, span.Context()))
	}
	d := truediff.NewWithOptions(cfg.sch, cfg.diff)
	return d.DiffScratch(ctx, src, dst, cfg.alloc, truediff.NewScratch())
}

// WithTraceContext returns a context carrying sc as the parent for spans
// opened under it: DiffContext's facade span, an Engine's "engine.diff"
// spans and a ServiceClient's RPC spans parent themselves on sc, joining
// the caller's trace.
func WithTraceContext(ctx context.Context, sc SpanContext) context.Context {
	return telemetry.ContextWithSpanContext(ctx, sc)
}

// InitialScript returns a well-typed initializing edit script that builds
// target from the empty tree. WithSchema is required.
func InitialScript(target *Node, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	return truediff.NewWithOptions(cfg.sch, cfg.diff).InitialScript(target, cfg.alloc)
}

// DiffWithMatching generates a well-typed script realizing an externally
// computed node matching (for example from baselines/gumtree.MatchTyped)
// instead of truediff's own subtree assignment. WithSchema is required;
// a matching that is not one-to-one yields ErrBadMatching.
func DiffWithMatching(src, dst *Node, matches []MatchPair, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	return truediff.NewWithOptions(cfg.sch, cfg.diff).DiffWithMatching(src, dst, matches, cfg.alloc)
}

// Patch applies the edit script to the tree and returns the patched tree.
// The input tree is not mutated: the result shares every subtree the
// script left unchanged and rebuilds the changed nodes and their
// ancestors, hashed with the input's digest kind. WithSchema is required;
// an allocator given WithAllocator is advanced past the input's URIs and
// the result's, and no further.
//
// The script must comply with the tree (Definition 3.5 of the paper): an
// edit that does not — wrong URIs, tags, links, stale literal values —
// fails with an error matching ErrNonCompliantScript (a *PatchError
// carrying the offending edit's index and kind), and scripts from Diff
// always comply with Diff's source tree. Patching is transactional: the
// script applies in full or not at all, so a failure never leaks a
// half-patched state (here that is invisible — untouched subtrees are
// shared and changed nodes are rebuilt — but the same guarantee holds for
// in-place patching via PatchAtomic).
func Patch(t *Node, s *Script, opts ...Option) (*Node, error) {
	return PatchContext(context.Background(), t, s, opts...)
}

// PatchContext is the context-first form of Patch. Patching costs one
// O(n) pass that indexes the tree, with no allocation per node, plus
// O(change) for the edits and the rebuilt spine, so unlike diffing it does
// not poll ctx mid-run: ctx is observed on entry (a cancelled context
// fails before any edit applies, preserving transactionality) and a nil
// ctx is treated as context.Background(), under which PatchContext is
// exactly Patch.
func PatchContext(ctx context.Context, t *Node, s *Script, opts ...Option) (*Node, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	if t == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNilTree)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("structdiff: %w", err)
		}
	}
	mt, err := mtree.FromTree(cfg.sch, t)
	if err != nil {
		return nil, err
	}
	if err := mt.Patch(s); err != nil {
		// mtree's PatchError already carries ErrNonCompliantScript; a
		// second wrap here would make errors.Is matches ambiguous to read.
		return nil, fmt.Errorf("structdiff: %w", err)
	}
	alloc := cfg.alloc
	if alloc == nil {
		alloc = uri.NewAllocator()
	}
	return mt.ToTree(alloc)
}

// PatchAtomic applies the edit script to a mutable tree in place,
// transactionally: either every edit applies and nil is returned, or the
// first failing edit aborts the patch, every already-applied edit is
// rolled back (restoring mt to exactly its pre-call state, same nodes and
// all), and the returned error — a *PatchError matching
// ErrNonCompliantScript — reports the offending edit's index and kind and
// whether a rollback happened (PatchError.RolledBack).
//
// Use this over Patch when the caller owns a long-lived MTree (for
// example, replaying a version history) and cannot afford either the
// per-patch tree conversion or a corrupted tree on a bad script.
func PatchAtomic(mt *MTree, s *Script) error {
	if mt == nil {
		return fmt.Errorf("structdiff: %w", ErrNilTree)
	}
	if err := mt.Patch(s); err != nil {
		return fmt.Errorf("structdiff: %w", err)
	}
	return nil
}

// NewDiffer returns a reusable differ for the schema, honouring
// WithEquivalence, WithSelectionOrder, and WithUpdateOnLitMismatch. The
// differ is immutable and safe for concurrent use.
func NewDiffer(sch *Schema, opts ...Option) *Differ {
	cfg := newConfig(opts)
	return truediff.NewWithOptions(sch, cfg.diff)
}

// NewEngine returns a reusable engine for trees of the schema, honouring
// the diff options and the engine-only ones. It takes one pair per call
// (Engine.DiffPair) and is safe to call from many goroutines at once; see
// the Engine type (internal/engine re-exported here) and Snapshot.
func NewEngine(sch *Schema, opts ...Option) (*Engine, error) {
	if sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	cfg := newConfig(opts)
	return engine.New(sch, engine.Config{
		Diff:              cfg.diff,
		SlowDiffThreshold: cfg.slow,
		Fallback:          cfg.fallback,
		Faults:            cfg.faults,
		Spans:             cfg.spans,
		Logger:            cfg.logger,
		Explain:           cfg.explain,
	}), nil
}
