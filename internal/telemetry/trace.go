package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceRecord is one line of a JSONL diff trace: everything needed to
// reconstruct a per-diff latency and phase breakdown offline (the
// phase-resolved analog of the paper's §6 per-file measurements). Schema
// documented in docs/OBSERVABILITY.md.
type TraceRecord struct {
	// Pair identifies the diffed pair (e.g. the corpus file path); empty
	// when the caller assigned no label.
	Pair string `json:"pair,omitempty"`
	// TraceID and SpanID correlate the record with the distributed trace
	// the diff ran under (hex, W3C sizes); empty when the pair carried no
	// trace context.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// SourceNodes and TargetNodes are the input tree sizes.
	SourceNodes int `json:"source_nodes"`
	TargetNodes int `json:"target_nodes"`
	// Per-phase durations in nanoseconds (the four truediff steps). All
	// zero for diffs that short-circuited (Identical) or failed.
	PrepareNS int64 `json:"prepare_ns"`
	SharesNS  int64 `json:"shares_ns"`
	SelectNS  int64 `json:"select_ns"`
	EmitNS    int64 `json:"emit_ns"`
	// WallNS is the diff's total wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Edits is the script's compound edit count.
	Edits int `json:"edits"`
	// Identical marks pairs whose endpoints are the same tree: the diff
	// short-circuited to an empty script without running the algorithm.
	Identical bool `json:"identical,omitempty"`
	// Fallback marks pairs served by graceful degradation: the script is a
	// synthesized root replacement, not the algorithm's output.
	Fallback bool `json:"fallback,omitempty"`
	// Script-quality metrics (internal/quality). ReuseRatio is the
	// fraction of target nodes produced by reusing source subtrees;
	// ChangedNodes the script-touched node count; EditsPerNode the
	// compound-edits-per-changed-node conciseness ratio; ScriptRatio the
	// script size relative to the target tree.
	ReuseRatio   float64 `json:"reuse_ratio,omitempty"`
	ChangedNodes int     `json:"changed_nodes,omitempty"`
	EditsPerNode float64 `json:"edits_per_changed,omitempty"`
	ScriptRatio  float64 `json:"script_tree_ratio,omitempty"`
	// Err carries the error message of a failed diff.
	Err string `json:"err,omitempty"`
}

// SetPhases fills the per-phase nanosecond fields from t.
func (r *TraceRecord) SetPhases(t PhaseTimes) {
	r.PrepareNS = t[PhasePrepare].Nanoseconds()
	r.SharesNS = t[PhaseShares].Nanoseconds()
	r.SelectNS = t[PhaseSelect].Nanoseconds()
	r.EmitNS = t[PhaseEmit].Nanoseconds()
}

// TraceWriter writes TraceRecords as JSON Lines, one record per line.
// Write is concurrency-safe (engine workers emit from many goroutines);
// the first encoding or I/O error sticks and is returned by every later
// Write and by Err.
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int64
	err error
}

// NewTraceWriter returns a TraceWriter emitting to w. The caller retains
// ownership of w (close files yourself after the last Write).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// Write appends one record.
func (t *TraceWriter) Write(rec TraceRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.enc.Encode(rec); err != nil {
		t.err = err
		return err
	}
	t.n++
	return nil
}

// Count returns the number of records written so far.
func (t *TraceWriter) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err returns the sticky error, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
