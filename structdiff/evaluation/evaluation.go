// Package evaluation exposes the paper's evaluation harness (§6):
// conciseness and throughput comparisons against the Gumtree and hdiff
// baselines (Figs. 4 and 5), the incremental-analysis case study, scaling
// and ablation studies, and the engine replay that measures the batch
// engine against sequential diffing. It is the public face of
// internal/evaluation.
package evaluation

import (
	"repro/internal/corpus"
	"repro/internal/evaluation"
	"repro/structdiff"
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
	// EngineReplayResult compares batch-engine against sequential
	// diffing over a corpus replay.
	EngineReplayResult = evaluation.EngineReplayResult
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

// RunEngineReplay replays a corpus through the batch engine and through
// plain sequential diffing, verifying the scripts agree edit for edit and
// measuring the speedup and the scratch pool's hit rate.
func RunEngineReplay(cfg Config, workers int) *EngineReplayResult {
	return evaluation.RunEngineReplay(cfg, workers)
}

// RunEngineReplayOn is RunEngineReplay over a caller-supplied engine (any
// engine over a pylang schema), so observers, tracers, and a live metrics
// endpoint wired to that engine see the replay. The result's Snapshot is
// the engine's per-replay delta (Snapshot.Sub of after and before).
func RunEngineReplayOn(e *structdiff.Engine, cfg Config) *EngineReplayResult {
	return evaluation.RunEngineReplayOn(e, cfg)
}
