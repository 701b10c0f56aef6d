// Package telemetry is the observability layer of the diff stack: lock-free
// log-bucketed histograms, a Tracer interface carrying the four truediff
// phases of a diff, Prometheus text exposition and its /metrics handler,
// and a JSONL trace sink for offline analysis.
//
// The package depends on the standard library only and is deliberately
// allocation-light on the hot path: recording a value into a Histogram is
// three atomic adds, and a diff without a Tracer costs a handful of
// monotonic clock reads. Everything heavier (text exposition, JSON encoding,
// quantile estimation) happens on the reading side.
//
// The layering is strict: telemetry knows nothing about trees, schemas, or
// engines. internal/truediff reports phase durations through the Tracer its
// context carries and scratch-local PhaseTimes; internal/engine merges those
// into engine-level histograms and exposes everything through the Gatherer
// interface that Handler serves at the diff service's /metrics.
package telemetry

import "time"

// Phase identifies one of the four steps of the truediff algorithm
// (paper §4). Each diff passes through all four, in order.
type Phase uint8

const (
	// PhasePrepare is the per-diff preparation preceding the matching:
	// allocator derivation, schema validation, and scratch reset. (The
	// paper's step 1, digest preparation, happens at tree construction;
	// its residual per-diff cost is what this phase captures.)
	PhasePrepare Phase = iota
	// PhaseShares is step 2: the simultaneous traversal that builds the
	// subtree registry and assigns shares (find reuse candidates).
	PhaseShares
	// PhaseSelect is step 3: greedy highest-first candidate selection.
	PhaseSelect
	// PhaseEmit is step 4: edit emission and patched-tree construction.
	PhaseEmit

	// NumPhases is the number of phases; PhaseTimes is indexed by Phase.
	NumPhases = 4
)

// String returns the phase's short lowercase name, used as the `phase`
// label value in the Prometheus exposition and as JSONL field suffixes.
func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "prepare"
	case PhaseShares:
		return "shares"
	case PhaseSelect:
		return "select"
	case PhaseEmit:
		return "emit"
	}
	return "unknown"
}

// PhaseTimes holds one diff's per-phase durations, indexed by Phase.
type PhaseTimes [NumPhases]time.Duration

// Total sums the four phase durations. It is at most the diff's wall time
// (the difference is instrumentation and call overhead).
func (t PhaseTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Tracer receives the phase events of every diff whose context carries it
// (ContextWithTracer): one Phase call per phase, in Phase order, once the
// diff has passed validation. A diff that fails validation emits no events;
// a diff aborted because its context is done emits the phases that
// completed.
//
// Implementations must be cheap: the differ calls them synchronously on
// the hot path. A Tracer shared by several goroutines must be
// concurrency-safe.
type Tracer interface {
	// Phase reports one completed phase and its duration.
	Phase(p Phase, d time.Duration)
}
