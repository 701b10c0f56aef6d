package structdiff

import (
	"context"
	"fmt"

	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/truediff"
)

// Diff explainability: per-edit provenance and script-quality metrics.
// See docs/OBSERVABILITY.md ("Explainability") for the data model.

type (
	// Explanation is the per-diff provenance report: one EditProvenance
	// per script edit (index-aligned), plus selection summary counts.
	Explanation = truediff.Explanation
	// EditProvenance explains one edit: which equivalence class matched,
	// whether the preferred (exact) or a structural candidate won, at
	// which height, how many candidates were considered, and why losing
	// subtrees were loaded or unloaded instead of reused.
	EditProvenance = truediff.EditProvenance
	// ExplainSink receives explanations (see WithExplain);
	// ExplainCollector is the trivial keep-last sink.
	ExplainSink      = truediff.ExplainSink
	ExplainCollector = truediff.ExplainCollector
	// QualityMetrics is the per-diff conciseness report of
	// internal/quality: reuse ratio, edits per changed node, script-size
	// to tree-size ratio, and (on small trees) the optimality gap against
	// an exact minimal-script baseline.
	QualityMetrics = quality.Metrics
)

// DefaultQualityBaselineMaxNodes caps the exact minimal-script baseline:
// pairs whose trees both fit under it are baselined, larger pairs skip
// the quadratic computation.
const DefaultQualityBaselineMaxNodes = quality.DefaultBaselineMaxNodes

// WithExplain turns on per-edit provenance. On an Engine every
// successful PairResult carries PairResult.Explain (fallback scripts
// carry none); on Explain/ExplainContext it is implied. The
// instrumentation is allocation-free when off and never perturbs the
// emitted script.
func WithExplain() Option { return func(c *config) { c.explain = true } }

// WithQualityBaseline enables the exact minimal-script baseline on pairs
// whose trees both have at most maxNodes nodes: DiffStats gain
// MinimalEdits and OptimalityGap, and the engine aggregates them into
// structdiff_quality_* metrics. The baseline is O(n²·d²) — keep the cap
// small (DefaultQualityBaselineMaxNodes is a good ceiling). Zero (the
// default) disables baselining; reuse/conciseness ratios are computed
// regardless.
func WithQualityBaseline(maxNodes int) Option { return func(c *config) { c.qbase = maxNodes } }

// Explained is the result of Explain: the ordinary diff Result plus the
// per-edit provenance and the script-quality metrics.
type Explained struct {
	*Result
	// Provenance is index-aligned with Result.Script.Edits.
	Provenance *Explanation
	// Quality reports the script's conciseness; Quality.Baselined is set
	// only when WithQualityBaseline admitted the pair.
	Quality QualityMetrics
}

// Explain is Diff with explainability: it computes the script, annotates
// every edit with its provenance, and measures the script's quality.
// WithSchema is required; WithQualityBaseline additionally computes the
// optimality gap on small trees. It is ExplainContext with a background
// context.
func Explain(src, dst *Node, opts ...Option) (*Explained, error) {
	return ExplainContext(context.Background(), src, dst, opts...)
}

// ExplainContext is the context-first form of Explain, with DiffContext's
// cancellation semantics.
func ExplainContext(ctx context.Context, src, dst *Node, opts ...Option) (*Explained, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.spans != nil {
		span := telemetry.StartSpan(cfg.spans, telemetry.SpanContextFromContext(ctx), "structdiff.explain")
		defer span.End()
		ctx = telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(cfg.spans, span.Context()))
	}
	col := &ExplainCollector{}
	d := truediff.NewWithOptions(cfg.sch, cfg.diff)
	res, err := d.DiffScratch(truediff.ContextWithExplain(ctx, col), src, dst, cfg.alloc,
		truediff.NewScratch(), truediff.CtxCheckpoint(ctx, cfg.timeout))
	if err != nil {
		return nil, err
	}
	qbase := cfg.qbase
	if qbase <= 0 {
		qbase = -1 // facade default: no quadratic baseline unless asked
	}
	return &Explained{
		Result:     res,
		Provenance: col.Last,
		Quality:    quality.Measure(src, dst, res.Script, qbase),
	}, nil
}

// MeasureQuality computes the conciseness metrics for a script that
// transforms src into dst (for scripts obtained elsewhere, e.g. from
// DiffWithMatching or a baseline differ). baselineMaxNodes bounds the
// exact minimal-script baseline: 0 selects
// DefaultQualityBaselineMaxNodes, negative disables it.
func MeasureQuality(src, dst *Node, s *Script, baselineMaxNodes int) QualityMetrics {
	return quality.Measure(src, dst, s, baselineMaxNodes)
}
