package structdiff

import (
	"context"

	"repro/internal/truediff"
)

// Diff explainability: per-edit provenance.
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
)

// WithExplain turns on per-edit provenance. On an Engine every
// successful PairResult carries PairResult.Explain (fallback scripts
// carry none); on Explain/ExplainContext it is implied. The
// instrumentation is allocation-free when off and never perturbs the
// emitted script.
func WithExplain() Option { return func(c *config) { c.explain = true } }

// Explained is the result of Explain: the ordinary diff Result plus the
// per-edit provenance.
type Explained struct {
	*Result
	// Provenance is index-aligned with Result.Script.Edits.
	Provenance *Explanation
}

// Explain is Diff with explainability: it computes the script and
// annotates every edit with its provenance. WithSchema is required. It is
// ExplainContext with a background context.
func Explain(src, dst *Node, opts ...Option) (*Explained, error) {
	return ExplainContext(context.Background(), src, dst, opts...)
}

// ExplainContext is DiffContext with a provenance collector on ctx, so it
// has DiffContext's cancellation semantics and, under WithSpans, records
// its "structdiff.diff" span.
func ExplainContext(ctx context.Context, src, dst *Node, opts ...Option) (*Explained, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	col := &truediff.ExplainCollector{}
	res, err := DiffContext(truediff.ContextWithExplain(ctx, col), src, dst, opts...)
	if err != nil {
		return nil, err
	}
	return &Explained{Result: res, Provenance: col.Last}, nil
}
