// Package diffserve turns the diffing engine into a shared network
// service: an HTTP/JSON server (cmd/diffd is its daemon front end) that
// accepts diff requests, one pair each, runs each on its own request
// goroutine once one of its language's worker slots is free, enforces
// per-tenant concurrency limits with queue backpressure on its pending
// jobs (shedding with 429 + Retry-After when saturated), and drains
// gracefully on shutdown — plus an HTTP client implementing the
// same DiffService surface as the in-process engine, so callers need not
// care whether a Diff runs locally or over the wire.
//
// The wire format is versioned JSON (this file): every envelope — request,
// response, script, stats, snapshot — carries a schema_version of the form
// "MAJOR.MINOR". Decoders accept any minor revision of their own major
// version and reject other majors cleanly instead of mis-parsing; fields
// only ever get added within a major version, never removed or retyped.
// Trees travel as S-expressions (tree.EncodeSExpr) or as content-digest
// refs to trees the server already holds in its ref table, so a
// version-history replay ships each tree at most once. See docs/SERVICE.md.
package diffserve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/truechange"
)

// WireVersion is the schema version stamped on every envelope this build
// writes. The major component is the compatibility contract; the minor
// counts additive revisions. 1.1 added the script literal kind "fbits",
// which carries NaN and ±Inf as the hex of their IEEE 754 bits; a 1.0
// decoder rejects it as an unknown kind instead of misreading it.
const WireVersion = "1.1"

// wireMajor is the major version this build's decoders accept.
const wireMajor = 1

// CheckWireVersion validates a received schema_version: it must parse as
// "MAJOR" or "MAJOR.MINOR" and its major version must match this build's.
// A higher minor of the same major is accepted (fields are only ever
// added); anything else is rejected before any payload field is decoded.
func CheckWireVersion(v string) error {
	if v == "" {
		return fmt.Errorf("diffserve: missing schema_version (this build speaks %s)", WireVersion)
	}
	major, _, _ := strings.Cut(v, ".")
	n, err := strconv.Atoi(major)
	if err != nil {
		return fmt.Errorf("diffserve: malformed schema_version %q", v)
	}
	if n != wireMajor {
		return fmt.Errorf("diffserve: unsupported schema_version %q (this build speaks major %d)", v, wireMajor)
	}
	return nil
}

// TreeInput is one tree operand of a request: either an S-expression to
// decode (URIs are server-assigned) or a Ref naming a tree the server
// already holds — the hex content digest an earlier response reported as
// SourceRef/TargetRef. A request carrying an unknown Ref fails with
// ErrKindUnknownRef; the client falls back to sending the S-expression.
type TreeInput struct {
	SExpr string `json:"sexpr,omitempty"`
	Ref   string `json:"ref,omitempty"`
}

// DiffRequest is the body of POST /v1/diff.
type DiffRequest struct {
	SchemaVersion string    `json:"schema_version"`
	Lang          string    `json:"lang"`
	Source        TreeInput `json:"source"`
	Target        TreeInput `json:"target"`
	// Label identifies the pair in traces and the slow-diff log; the
	// server prefixes it with the request's trace ID.
	Label string `json:"label,omitempty"`
	// WantPatched asks for the patched tree as an S-expression in the
	// response (off by default: the script is the service's product and
	// the patched tree can be as large as the target).
	WantPatched bool `json:"want_patched,omitempty"`
}

// WireScript is the versioned envelope of a truechange edit script. Edits
// is kept raw until the version check passes, so a v2 script can never be
// half-parsed by a v1 decoder.
type WireScript struct {
	SchemaVersion string          `json:"schema_version"`
	Edits         json.RawMessage `json:"edits"`
}

// EncodeScript wraps a script in its versioned envelope.
func EncodeScript(s *truechange.Script) (*WireScript, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("diffserve: encode script: %w", err)
	}
	return &WireScript{SchemaVersion: WireVersion, Edits: raw}, nil
}

// Decode validates the envelope's version and only then parses the edits.
func (w *WireScript) Decode() (*truechange.Script, error) {
	if err := CheckWireVersion(w.SchemaVersion); err != nil {
		return nil, err
	}
	s := &truechange.Script{}
	if err := json.Unmarshal(w.Edits, s); err != nil {
		return nil, fmt.Errorf("diffserve: decode script: %w", err)
	}
	return s, nil
}

// WireStats is the versioned wire form of engine.DiffStats.
type WireStats struct {
	SchemaVersion string  `json:"schema_version"`
	WallNS        int64   `json:"wall_ns"`
	Edits         int     `json:"edits"`
	SourceNodes   int     `json:"source_nodes"`
	TargetNodes   int     `json:"target_nodes"`
	ReuseRatio    float64 `json:"reuse_ratio"`
	PrepareNS     int64   `json:"prepare_ns"`
	SharesNS      int64   `json:"shares_ns"`
	SelectNS      int64   `json:"select_ns"`
	EmitNS        int64   `json:"emit_ns"`
	Identical     bool    `json:"identical,omitempty"`
	Fallback      bool    `json:"fallback,omitempty"`
}

// StatsToWire converts engine stats for transmission.
func StatsToWire(st engine.DiffStats) *WireStats {
	return &WireStats{
		SchemaVersion: WireVersion,
		WallNS:        st.Wall.Nanoseconds(),
		Edits:         st.Edits,
		SourceNodes:   st.SourceSize,
		TargetNodes:   st.TargetSize,
		ReuseRatio:    st.ReuseRatio,
		PrepareNS:     st.Phases[telemetry.PhasePrepare].Nanoseconds(),
		SharesNS:      st.Phases[telemetry.PhaseShares].Nanoseconds(),
		SelectNS:      st.Phases[telemetry.PhaseSelect].Nanoseconds(),
		EmitNS:        st.Phases[telemetry.PhaseEmit].Nanoseconds(),
		Identical:     st.Identical,
		Fallback:      st.Fallback,
	}
}

// ToDiffStats converts received wire stats back into engine stats (the
// client's PairResult carries them).
func (w *WireStats) ToDiffStats() (engine.DiffStats, error) {
	if err := CheckWireVersion(w.SchemaVersion); err != nil {
		return engine.DiffStats{}, err
	}
	st := engine.DiffStats{
		Wall:       duration(w.WallNS),
		Edits:      w.Edits,
		SourceSize: w.SourceNodes,
		TargetSize: w.TargetNodes,
		ReuseRatio: w.ReuseRatio,
		Identical:  w.Identical,
		Fallback:   w.Fallback,
	}
	st.Phases[telemetry.PhasePrepare] = duration(w.PrepareNS)
	st.Phases[telemetry.PhaseShares] = duration(w.SharesNS)
	st.Phases[telemetry.PhaseSelect] = duration(w.SelectNS)
	st.Phases[telemetry.PhaseEmit] = duration(w.EmitNS)
	return st, nil
}

func duration(ns int64) time.Duration { return time.Duration(ns) }

// Error kinds a WireError classifies into. Clients map them back onto the
// repository's sentinel errors (see kindToErr in client.go).
const (
	ErrKindBadRequest  = "bad_request"
	ErrKindUnknownLang = "unknown_lang"
	ErrKindUnknownRef  = "unknown_ref"
	ErrKindPanic       = "panic"
	ErrKindTimeout     = "timeout"
	ErrKindCancelled   = "cancelled"
	ErrKindIllTyped    = "ill_typed"
	ErrKindSaturated   = "saturated"
	ErrKindDraining    = "draining"
	ErrKindInternal    = "internal"
)

// WireError is the typed failure carried by error responses and by the
// response of a failed diff.
type WireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RetryAfterMS advises when to retry a saturated request (kind
	// "saturated"); zero otherwise.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// DiffResponse is the body of a POST /v1/diff answer that got past
// decoding and admission. Error is set instead of Script/Stats when the
// pair failed, and the answer then carries the error's status.
type DiffResponse struct {
	SchemaVersion string      `json:"schema_version"`
	TraceID       string      `json:"trace_id,omitempty"`
	Script        *WireScript `json:"script,omitempty"`
	Stats         *WireStats  `json:"stats,omitempty"`
	// SourceRef and TargetRef are the hex content digests under which the
	// server holds the operands; later requests may pass them as
	// TreeInput.Ref instead of re-sending the trees.
	SourceRef string `json:"source_ref,omitempty"`
	TargetRef string `json:"target_ref,omitempty"`
	// PatchedSExpr carries the patched tree when the request set
	// WantPatched.
	PatchedSExpr string     `json:"patched_sexpr,omitempty"`
	Error        *WireError `json:"error,omitempty"`
}

// ErrorResponse is the body of a non-2xx answer to a request refused as a
// whole: a bad envelope, a shed, a drain refusal. A DiffResponse carrying
// an error has the same keys.
type ErrorResponse struct {
	SchemaVersion string    `json:"schema_version"`
	Error         WireError `json:"error"`
}

// SnapshotResponse is the body of GET /v1/snapshot: one engine snapshot
// per served language.
type SnapshotResponse struct {
	SchemaVersion string                     `json:"schema_version"`
	Draining      bool                       `json:"draining,omitempty"`
	Langs         map[string]engine.Snapshot `json:"langs"`
}
