package structdiff

// This file re-exports the data model of the internal packages as type
// aliases, so applications can hold, build, and inspect every value the
// facade produces without importing internal/... paths. Aliases (not
// definitions) are used deliberately: values flow between the facade and
// the internal packages with no conversions, and methods stay attached.

import (
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// --- Trees (internal/tree, internal/uri) --------------------------------

type (
	// Node is an immutable hashed tree node (paper §4: every subtree
	// carries its structure and literal digests).
	Node = tree.Node
	// Builder constructs schema-validated trees.
	Builder = tree.Builder
	// HashKind selects the subtree hash algorithm.
	HashKind = tree.HashKind
	// Digest is a subtree digest, as Node.StructHash and Node.LitHash
	// return it.
	Digest = tree.Digest
	// ExactKey identifies a tree up to equality (Node.ExactHash).
	ExactKey = tree.ExactKey
	// URI identifies a node stably across edits.
	URI = uri.URI
	// Allocator hands out fresh URIs.
	Allocator = uri.Allocator
)

const (
	// SHA256 is the paper's subtree hash.
	SHA256 = tree.SHA256
	// FNV64 is the fast non-cryptographic ablation hash.
	FNV64 = tree.FNV64
	// RootURI is the URI of the pre-defined root node.
	RootURI = uri.Root
)

// NewAllocator returns a fresh URI allocator.
func NewAllocator() *Allocator { return uri.NewAllocator() }

// NewBuilder returns a tree builder for the schema drawing URIs from
// alloc (nil for a fresh allocator).
func NewBuilder(sch *Schema, alloc *Allocator) *Builder {
	if alloc == nil {
		alloc = uri.NewAllocator()
	}
	return tree.NewBuilder(sch, alloc)
}

// Clone deep-copies a tree with fresh URIs, recomputing its hashes.
func Clone(n *Node, alloc *Allocator, kind HashKind) *Node { return tree.Clone(n, alloc, kind) }

// CloneKeepDigests deep-copies a tree with fresh URIs, keeping its digests
// verbatim (digests never depend on URIs). Valid only when the tree already
// carries digests of the desired kind — check with HashedWith. The copy
// comes from two arenas and shares each node's literal slice.
func CloneKeepDigests(n *Node, alloc *Allocator) *Node { return tree.CloneKeepDigests(n, alloc) }

// HashedWith reports whether a tree carries digests of the given kind.
func HashedWith(n *Node, kind HashKind) bool { return tree.HashedWith(n, kind) }

// Walk visits the tree pre-order.
func Walk(n *Node, f func(*Node)) { tree.Walk(n, f) }

// TreesEqual reports deep equality of trees, ignoring URIs.
func TreesEqual(a, b *Node) bool { return tree.Equal(a, b) }

// StructurallyEquivalent reports equality up to literals and URIs;
// LiterallyEquivalent additionally requires equal literals (paper §4.1).
func StructurallyEquivalent(a, b *Node) bool { return tree.StructurallyEquivalent(a, b) }
func LiterallyEquivalent(a, b *Node) bool    { return tree.LiterallyEquivalent(a, b) }

// --- Schemas (internal/sig) ---------------------------------------------

type (
	// Schema declares the sorts and signatures trees are typed against.
	Schema = sig.Schema
	// Sig is one constructor signature.
	Sig = sig.Sig
	// Tag names a constructor; Sort a syntactic category; Link a child or
	// literal position.
	Tag  = sig.Tag
	Sort = sig.Sort
	Link = sig.Link
	// KidSpec and LitSpec describe a signature's child and literal slots.
	KidSpec = sig.KidSpec
	LitSpec = sig.LitSpec
	// BaseType types literal values.
	BaseType = sig.BaseType
)

const (
	RootTag  = sig.RootTag
	RootLink = sig.RootLink
	AnySort  = sig.Any
)

const (
	AnyLit    = sig.AnyLit
	StringLit = sig.StringLit
	IntLit    = sig.IntLit
	FloatLit  = sig.FloatLit
	BoolLit   = sig.BoolLit
)

// NewSchema returns an empty schema with the given name.
func NewSchema(name string) *Schema { return sig.NewSchema(name) }

// --- Edit scripts (internal/truechange) ---------------------------------

type (
	// Script is a truechange edit script; Edit one of its edits.
	Script = truechange.Script
	Edit   = truechange.Edit
	// The five edit kinds of the paper's §3.
	Detach = truechange.Detach
	Attach = truechange.Attach
	Load   = truechange.Load
	Unload = truechange.Unload
	Update = truechange.Update
	// NodeRef, KidArg, and LitArg are the operands of edits.
	NodeRef = truechange.NodeRef
	KidArg  = truechange.KidArg
	LitArg  = truechange.LitArg
	// State is the linear typing context of the edit type system; Slot one
	// hole in it. TypeError reports a script that fails the type check.
	State     = truechange.State
	Slot      = truechange.Slot
	TypeError = truechange.TypeError
	// Stats is a per-kind breakdown of a script.
	Stats = truechange.Stats
)

// RootRef refers to the pre-defined root node.
var RootRef = truechange.RootRef

// WellTyped checks a script against the closed-to-closed typing judgement
// (scripts produced by Diff); WellTypedInit against the initializing one
// (scripts produced by InitialScript). Failures match ErrIllTyped.
func WellTyped(sch *Schema, s *Script) error     { return truechange.WellTyped(sch, s) }
func WellTypedInit(sch *Schema, s *Script) error { return truechange.WellTypedInit(sch, s) }

// CheckEdit type-checks a single edit from an explicit state, advancing
// the state in place, and returns the edit's TypeError, if any.
func CheckEdit(sch *Schema, e Edit, st *State) error { return truechange.CheckEdit(sch, e, st) }

// ClosedState and InitState are the canonical initial typing states.
func ClosedState() *State { return truechange.ClosedState() }
func InitState() *State   { return truechange.InitState() }

// ComputeStats analyzes a script into per-kind counts and the paper's
// compound (conciseness) metric.
func ComputeStats(s *Script) Stats { return truechange.ComputeStats(s) }

// Normalize, Invert, Compose, and Concat are the script algebra.
func Normalize(s *Script) *Script        { return truechange.Normalize(s) }
func Invert(s *Script) *Script           { return truechange.Invert(s) }
func Compose(scripts ...*Script) *Script { return truechange.Compose(scripts...) }
func Concat(scripts ...*Script) *Script  { return truechange.Concat(scripts...) }

// --- Mutable trees (internal/mtree) -------------------------------------

type (
	// MTree is the mutable, URI-indexed tree the standard semantics of
	// edit scripts operates on; MNode is its node type.
	MTree = mtree.MTree
	MNode = mtree.MNode
	// PatchError is the typed failure of a transactional patch: the
	// offending edit's index and kind, and whether already-applied edits
	// were rolled back. Matches ErrNonCompliantScript via errors.Is; see
	// Patch and PatchAtomic.
	PatchError = mtree.PatchError
)

// NewMTree returns an empty mutable tree (just the pre-defined root);
// MTreeFromTree converts an immutable tree.
func NewMTree(sch *Schema) *MTree { return mtree.New(sch) }
func MTreeFromTree(sch *Schema, t *Node) (*MTree, error) {
	return mtree.FromTree(sch, t)
}

// --- Diffing (internal/truediff) ----------------------------------------

type (
	// Differ computes edit scripts; Result carries a script and the
	// patched tree. EquivMode and SelectionOrder configure the algorithm.
	Differ         = truediff.Differ
	Result         = truediff.Result
	EquivMode      = truediff.EquivMode
	SelectionOrder = truediff.SelectionOrder
	// Scratch is recyclable per-diff working state (see Differ.DiffScratch
	// and the Engine, which pools it).
	Scratch = truediff.Scratch
	// MatchPair feeds DiffWithMatching.
	MatchPair = truediff.MatchPair
)

const (
	StructuralWithLiteralPreference = truediff.StructuralWithLiteralPreference
	ExactOnly                       = truediff.ExactOnly
	StructuralNoPreference          = truediff.StructuralNoPreference
)

const (
	HighestFirst = truediff.HighestFirst
	FIFO         = truediff.FIFO
)

// NewScratch returns recyclable diffing scratch state for
// Differ.DiffScratch.
func NewScratch() *Scratch { return truediff.NewScratch() }

// --- Batch engine (internal/engine) -------------------------------------

type (
	// Engine diffs batches of tree pairs concurrently with pooled scratch
	// state; see NewEngine.
	Engine = engine.Engine
	// Pair is one diffing task; PairResult its outcome; DiffStats its
	// instrumentation.
	Pair       = engine.Pair
	PairResult = engine.PairResult
	DiffStats  = engine.DiffStats
	// Snapshot is a point-in-time view of an engine's cumulative metrics;
	// Snapshot.Sub derives per-batch deltas.
	Snapshot = engine.Snapshot
	// FallbackMode selects the engine's graceful-degradation policy (see
	// WithFallback); PanicError is the typed error of a recovered per-diff
	// panic, matching ErrDiffPanic and carrying the goroutine stack.
	FallbackMode = engine.FallbackMode
	PanicError   = engine.PanicError
)

// The graceful-degradation policies of WithFallback.
const (
	FallbackNone        = engine.FallbackNone
	FallbackRootReplace = engine.FallbackRootReplace
)

// --- Fault injection (internal/faultinject) ------------------------------

type (
	// FaultInjector fires pre-armed deterministic faults at named sites
	// (see WithFaultInjection); Fault arms one, FaultKind selects what it
	// does.
	FaultInjector = faultinject.Injector
	Fault         = faultinject.Fault
	FaultKind     = faultinject.Kind
)

// The fault kinds an injector can fire.
const (
	FaultError = faultinject.Error
	FaultPanic = faultinject.Panic
	FaultDelay = faultinject.Delay
)

// The fault-injection sites the diffing pipeline exposes: once per diff
// inside the engine's panic-isolation boundary, on every cancellation
// checkpoint poll, and on every edit a transactional patch applies.
const (
	FaultSiteDiff       = engine.FaultSiteDiff
	FaultSiteCheckpoint = engine.FaultSiteCheckpoint
	FaultSiteEdit       = mtree.FaultSiteEdit
)

// NewFaultInjector returns an injector firing the given faults; a zero
// Fault.Prob fault fires deterministically by hit count (After, Times),
// a fractional one pseudo-randomly from the seed. See WithFaultInjection
// for the engine sites and MTree.InjectFaults for the patch site.
func NewFaultInjector(seed int64, faults ...Fault) *FaultInjector {
	return faultinject.New(seed, faults...)
}

// --- Telemetry (internal/telemetry) -------------------------------------

type (
	// Phase identifies one of the four truediff steps; PhaseTimes holds
	// one diff's per-phase durations.
	Phase      = telemetry.Phase
	PhaseTimes = telemetry.PhaseTimes
	// Histogram is the lock-free log-bucketed histogram the engine
	// aggregates latencies into; HistogramSnapshot is its point-in-time
	// view (Mean, Quantile).
	Histogram         = telemetry.Histogram
	HistogramSnapshot = telemetry.HistogramSnapshot
	// Metric is one exposition sample; Gatherer is anything that reports
	// them (an Engine is one; the diffd service serves its engines' and
	// its own at GET /metrics).
	Metric   = telemetry.Metric
	Gatherer = telemetry.Gatherer
)

// The four truediff phases, in execution order.
const (
	PhasePrepare = telemetry.PhasePrepare
	PhaseShares  = telemetry.PhaseShares
	PhaseSelect  = telemetry.PhaseSelect
	PhaseEmit    = telemetry.PhaseEmit
	NumPhases    = telemetry.NumPhases
)
