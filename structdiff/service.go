package structdiff

import (
	"context"

	"repro/internal/diffserve"
)

// DiffService is the transport-agnostic diffing surface: everything a
// high-throughput caller needs — single diffs, batches, metrics,
// lifecycle — without committing to where the work runs. Two
// implementations ship with the package:
//
//   - *Engine (NewEngine): in-process, zero transport cost;
//   - *ServiceClient (NewServiceClient): the same calls executed by a
//     diffd daemon over versioned HTTP/JSON.
//
// Code written against DiffService moves between them freely. The one
// visible difference is URI spaces: a remote diff's scripts and patched
// trees use server-assigned URIs (content digests, which URIs never
// affect, are identical on both sides). The server numbers each tree in
// post-order from 1, so a remote script equals the engine's script, with
// a nil allocator, for two copies numbered that way (CloneKeepDigests
// from a fresh allocator).
type DiffService interface {
	// Diff computes the edit script from source to target. See
	// Engine.Diff for the contract on alloc.
	Diff(ctx context.Context, source, target *Node, alloc *Allocator) (*Result, error)
	// DiffBatch diffs many pairs concurrently; results are index-aligned
	// and per-pair failures land in PairResult.Err.
	DiffBatch(ctx context.Context, pairs []Pair) ([]PairResult, error)
	// Snapshot reports the implementation's cumulative counters.
	Snapshot() Snapshot
	// Close releases the implementation's resources; for an Engine this
	// waits for in-flight batches.
	Close() error
}

// Both implementations are checked here, at compile time: a drifting
// method signature fails the build, not a user.
var (
	_ DiffService = (*Engine)(nil)
	_ DiffService = (*ServiceClient)(nil)
)

// --- Diff service (internal/diffserve) -----------------------------------

type (
	// ServiceClient executes DiffService calls against a diffd daemon,
	// caching server-confirmed tree refs so repeated operands travel as
	// content digests instead of full trees.
	ServiceClient = diffserve.Client
	// ServiceClientOption customizes a ServiceClient (WithRetryPolicy).
	ServiceClientOption = diffserve.ClientOption
	// RetryPolicy parameterizes WithRetryPolicy: attempt bound,
	// full-jitter exponential backoff scale/cap, and an optional
	// per-attempt timeout.
	RetryPolicy = diffserve.RetryPolicy
	// ServiceClientSnapshot is a point-in-time copy of a ServiceClient's
	// resilience counters (attempts, retries, ref re-sends).
	ServiceClientSnapshot = diffserve.ClientSnapshot
	// ServiceServer is the embeddable diff service: an http.Handler that
	// diffs each request on its own goroutine once a worker slot of its
	// language is free, with admission control and graceful drain
	// (cmd/diffd wraps it in a daemon).
	ServiceServer = diffserve.Server
	// ServiceConfig parameterizes a ServiceServer.
	ServiceConfig = diffserve.Config
)

// ServiceWireVersion is the versioned wire schema this build speaks
// ("MAJOR.MINOR"; decoders accept any minor of their own major).
const ServiceWireVersion = diffserve.WireVersion

// NewServiceClient returns a DiffService executing against the diffd
// daemon at base (e.g. "http://localhost:8347") for one language. The
// schema must match the server's for that language; it decodes patched
// trees locally.
func NewServiceClient(base, lang string, sch *Schema, opts ...ServiceClientOption) *ServiceClient {
	return diffserve.NewClient(base, lang, sch, opts...)
}

// NewServiceServer builds an embeddable diff service from the
// configuration. Serve it with net/http; shut it down with Drain.
func NewServiceServer(cfg ServiceConfig) (*ServiceServer, error) {
	return diffserve.NewServer(cfg)
}

// WithRetryPolicy arms transparent retries on a ServiceClient: transient
// failures — transport errors, saturation sheds (429), drain refusals,
// 5xx answers, per-attempt timeouts — are re-attempted with full-jitter
// exponential backoff honoring the server's Retry-After advice and the
// request context. Safe because every request is idempotent: a diff is a
// pure function of two digest-identified trees, so a replay can only
// produce the same answer. The zero policy selects the defaults (4
// attempts, 50ms base backoff doubling to a 5s cap).
func WithRetryPolicy(pol RetryPolicy) ServiceClientOption { return diffserve.WithRetry(pol) }
