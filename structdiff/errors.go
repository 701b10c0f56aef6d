package structdiff

import (
	"repro/internal/derrors"
	"repro/internal/faultinject"
)

// The package's failure modes are typed sentinel errors: every error
// returned by the facade (and by the internal packages underneath it)
// wraps exactly one of these, so callers branch with errors.Is instead of
// matching message strings. The dynamic context — which tag, which edit
// index, which URI — stays in the wrapping message.
var (
	// ErrNilTree reports a nil source or target tree.
	ErrNilTree = derrors.ErrNilTree
	// ErrNoSchema reports a facade call that requires WithSchema.
	ErrNoSchema = derrors.ErrNoSchema
	// ErrSchemaMismatch reports a tree using tags the schema does not
	// declare, i.e. a tree built against a different schema.
	ErrSchemaMismatch = derrors.ErrSchemaMismatch
	// ErrIllTyped reports an edit script rejected by truechange's linear
	// type system (WellTyped, WellTypedInit).
	ErrIllTyped = derrors.ErrIllTyped
	// ErrNonCompliantScript reports a script whose edits do not match the
	// tree they are applied to (Definition 3.5).
	ErrNonCompliantScript = derrors.ErrNonCompliantScript
	// ErrBadMatching reports a DiffWithMatching matching that is not
	// one-to-one.
	ErrBadMatching = derrors.ErrBadMatching
	// ErrDiffPanic reports a diff that panicked and was recovered by the
	// engine's panic isolation (the wrapping PanicError carries the
	// recovered value and stack); the pair fails alone.
	ErrDiffPanic = derrors.ErrDiffPanic
	// ErrDiffTimeout reports a diff aborted because it overran a per-diff
	// deadline: a context deadline whose cause wraps it
	// (context.WithTimeoutCause). Distinct from a plain context deadline,
	// which surfaces as context.DeadlineExceeded.
	ErrDiffTimeout = derrors.ErrDiffTimeout
	// ErrEngineClosed reports a Diff or DiffPair call on an Engine whose
	// Close has begun.
	ErrEngineClosed = derrors.ErrEngineClosed
	// ErrServiceUnavailable reports a diff-service request rejected by
	// admission control — the server is saturated (HTTP 429; retry after
	// the advertised delay) or draining for shutdown (HTTP 503) — or a
	// transport-level failure a retrying client (WithRetryPolicy) may
	// transparently recover from.
	ErrServiceUnavailable = derrors.ErrServiceUnavailable
	// ErrMergeConflict reports a three-way merge (Merge, MergeContext,
	// MergeScripts) whose two edit scripts claim the same node or slot in
	// incompatible ways under MergePolicyFail. The wrapping
	// *MergeConflictError carries the full conflict list.
	ErrMergeConflict = derrors.ErrMergeConflict
	// ErrFaultInjected reports a failure fired by a test-only fault
	// injector (WithFaultInjection), never a production failure.
	ErrFaultInjected = faultinject.ErrInjected
)
