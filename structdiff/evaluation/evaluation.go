// Package evaluation exposes the paper's evaluation harness (§6):
// conciseness and throughput comparisons against the Gumtree and hdiff
// baselines (Figs. 4 and 5), the incremental-analysis case study, and the
// scaling, ablation and external-matching studies. It is the public face
// of internal/evaluation.
package evaluation

import (
	"repro/internal/corpus"
	"repro/internal/evaluation"
)

type (
	// Config configures a corpus run; Runner executes it; FileResult is
	// the per-file-change measurement.
	Config     = evaluation.Config
	Runner     = evaluation.Runner
	FileResult = evaluation.FileResult
	// Conciseness and Throughput aggregate FileResults like the paper's
	// Figs. 4 and 5.
	Conciseness = evaluation.Conciseness
	Throughput  = evaluation.Throughput
	// IncAConfig and IncAResult drive the incremental-analysis case study.
	IncAConfig = evaluation.IncAConfig
	IncAResult = evaluation.IncAResult
	// ScalingPoint and AblationResult carry the scaling and ablation
	// studies; MatchingResult the external-matching comparison.
	ScalingPoint   = evaluation.ScalingPoint
	AblationResult = evaluation.AblationResult
	MatchingResult = evaluation.MatchingResult
)

// DefaultConfig mirrors the evaluation setup of the paper.
func DefaultConfig() Config { return evaluation.DefaultConfig() }

// NewRunner prepares a corpus run.
func NewRunner(cfg Config) *Runner { return evaluation.NewRunner(cfg) }

// Fig4 aggregates conciseness; Fig5 aggregates throughput.
func Fig4(results []FileResult) Conciseness { return evaluation.Fig4(results) }
func Fig5(results []FileResult) Throughput  { return evaluation.Fig5(results) }

// DefaultIncAConfig mirrors the case-study setup; RunIncA executes it.
func DefaultIncAConfig() IncAConfig      { return evaluation.DefaultIncAConfig() }
func RunIncA(cfg IncAConfig) *IncAResult { return evaluation.RunIncA(cfg) }

// RunScaling diffs synthetic trees of growing size; ScalingReport renders
// the result table.
func RunScaling(sizes []int, editsPerTree int) []ScalingPoint {
	return evaluation.RunScaling(sizes, editsPerTree)
}
func ScalingReport(points []ScalingPoint) string { return evaluation.ScalingReport(points) }

// RunAblations compares algorithm variants; AblationReport renders them.
func RunAblations(opts corpus.Options) []AblationResult { return evaluation.RunAblations(opts) }
func AblationReport(results []AblationResult) string    { return evaluation.AblationReport(results) }

// RunMatching compares truediff's own assignment against scripts realized
// from Gumtree's similarity matching (the paper's §7 outlook).
func RunMatching(opts corpus.Options) *MatchingResult { return evaluation.RunMatching(opts) }
