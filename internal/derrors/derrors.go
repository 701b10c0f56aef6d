// Package derrors declares the sentinel errors shared by the diffing
// pipeline. It is a leaf package so that every layer — tree construction,
// the truechange type checker, the standard semantics, the truediff
// algorithm, and the engine — can classify its failures with the same
// values, and so that the public structdiff facade can re-export them
// without import cycles.
//
// All sentinels are returned wrapped (via %w) with operation-specific
// context; match them with errors.Is, never by string comparison.
package derrors

import "errors"

var (
	// ErrNilTree reports a nil source or target tree on a diff or patch
	// entry point.
	ErrNilTree = errors.New("nil input tree")

	// ErrSchemaMismatch reports a tree that uses constructor tags not
	// declared in the schema it is diffed or patched under.
	ErrSchemaMismatch = errors.New("tree does not conform to schema")

	// ErrIllTyped reports an edit script rejected by the truechange linear
	// type system (paper Fig. 3): an intermediate tree would be ill-typed,
	// or roots/slots would leak.
	ErrIllTyped = errors.New("edit script is ill-typed")

	// ErrNonCompliantScript reports an edit script that does not comply
	// with the tree it is applied to (Definition 3.5): it mentions URIs,
	// tags, or links the evolving tree does not have.
	ErrNonCompliantScript = errors.New("edit script does not comply with tree")

	// ErrBadMatching reports an externally supplied node matching that is
	// not one-to-one.
	ErrBadMatching = errors.New("matching is not one-to-one")

	// ErrNoSchema reports a facade call that requires a schema but received
	// none (structdiff.WithSchema was not passed).
	ErrNoSchema = errors.New("no schema provided")

	// ErrDiffPanic reports a diff that panicked and was recovered by the
	// engine's per-diff isolation: the pair fails alone and the process
	// survives. The wrapping error (engine.PanicError) carries
	// the recovered value and the goroutine stack.
	ErrDiffPanic = errors.New("diff panicked")

	// ErrDiffTimeout reports a diff aborted because it overran a per-diff
	// deadline: a context deadline whose cause wraps it
	// (context.WithTimeoutCause), as diffd sets one per job. Distinct from
	// a plain context deadline, which surfaces as
	// context.DeadlineExceeded.
	ErrDiffTimeout = errors.New("diff exceeded per-diff timeout")

	// ErrEngineClosed reports a Diff or DiffPair call on an engine whose
	// Close has begun: the engine's caches are released and no further work
	// is accepted.
	ErrEngineClosed = errors.New("engine is closed")

	// ErrServiceUnavailable reports a diff service request rejected by
	// admission control — the server is saturated (HTTP 429, retry after
	// the advertised delay) or draining for shutdown (HTTP 503) — or a
	// transport-level failure (connection refused/reset, truncated or
	// malformed response) that a retrying client may transparently recover
	// from: diffs are pure functions of digest-identified trees, so every
	// request is idempotent and safe to replay.
	ErrServiceUnavailable = errors.New("diff service unavailable")

	// ErrMergeConflict reports a three-way merge whose two edit scripts
	// claim the same typing resource (node or slot) in incompatible ways
	// and no resolution policy was allowed to pick a side. The wrapping
	// error (merge.ConflictError) carries the full conflict list: per
	// conflict the contended node URI or slot and the two competing edit
	// groups.
	ErrMergeConflict = errors.New("three-way merge has conflicts")
)
