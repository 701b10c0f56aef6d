package truediff

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// EquivMode selects the pair of equivalence relations used to find and
// select reuse candidates (paper §4.1). The paper's configuration is
// StructuralWithLiteralPreference; the other modes exist for the ablation
// benchmarks called out in DESIGN.md.
type EquivMode uint8

const (
	// StructuralWithLiteralPreference identifies candidates by structural
	// equivalence (equal up to literals) and prefers literally equivalent
	// candidates, i.e. exact copies. This is the paper's choice.
	StructuralWithLiteralPreference EquivMode = iota
	// ExactOnly identifies candidates by full equality; subtrees with
	// changed literals are never reused.
	ExactOnly
	// StructuralNoPreference identifies candidates structurally but picks
	// them in registration order without preferring exact copies.
	StructuralNoPreference
)

// SelectionOrder controls how target subtrees acquire candidates in step 3.
type SelectionOrder uint8

const (
	// HighestFirst processes target subtrees in decreasing height order so
	// larger trees are reused as a whole (the paper's choice, avoiding
	// subtree fragmentation).
	HighestFirst SelectionOrder = iota
	// FIFO processes target subtrees in breadth-first order without height
	// batching; an ablation that admits fragmentation.
	FIFO
)

// Options configure a Differ. The zero value is the paper's configuration.
type Options struct {
	Equiv EquivMode
	Order SelectionOrder
	// UpdateOnLitMismatch lets the step-4 traversal continue across nodes
	// whose tags agree but whose literals differ, emitting an Update
	// instead of replacing the node. The paper's traversal requires tag
	// and literals to coincide; this is an ablation.
	UpdateOnLitMismatch bool
	// CheckpointEvery is the number of nodes a diff with a Checkpoint (see
	// DiffScratch) processes between polls of it. Zero or negative selects
	// DefaultCheckpointEvery. Smaller values abort pathological diffs
	// sooner at the cost of more polls.
	CheckpointEvery int
}

// DefaultCheckpointEvery is the default node interval between Checkpoint
// polls: frequent enough to bound abort latency to microseconds on
// ordinary hardware, rare enough to be invisible in the phase timings.
const DefaultCheckpointEvery = 1024

// Checkpoint is a cooperative cancellation hook threaded through the four
// phases of a checked diff: it is polled every Options.CheckpointEvery
// processed nodes, and a non-nil return aborts the diff immediately — in
// the middle of a phase, not just between diffs — with the returned error.
// A Checkpoint runs on the diffing goroutine and must be cheap (a context
// poll, a deadline comparison).
type Checkpoint func() error

// CtxCheckpoint builds the cancellation hook of one diff: it aborts the
// diff once ctx is done, reporting the cancellation cause, or once timeout
// (when positive) has passed since the call, with an error matching
// derrors.ErrDiffTimeout. The deadline is fixed here, so call it when the
// diff starts. It returns nil when nothing can interrupt the diff (a nil or
// never-cancellable ctx, such as context.Background(), and no timeout),
// which keeps the unchecked fast path.
func CtxCheckpoint(ctx context.Context, timeout time.Duration) Checkpoint {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if done == nil && deadline.IsZero() {
		return nil
	}
	return func() error {
		select {
		case <-done: // never ready when done is nil
			return context.Cause(ctx)
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("%w (limit %v)", derrors.ErrDiffTimeout, timeout)
		}
		return nil
	}
}

// diffAbort carries a Checkpoint error up the diffing recursion; it is the
// only panic value DiffScratch recovers, everything else propagates.
type diffAbort struct{ err error }

// Differ computes truechange edit scripts between trees of one schema.
// A Differ is immutable after construction and safe for concurrent use by
// multiple goroutines; per-invocation state lives in a Scratch (one per
// goroutine) or is allocated per call.
type Differ struct {
	sch  *sig.Schema
	opts Options
}

// New returns a Differ with the paper's configuration.
func New(sch *sig.Schema) *Differ { return &Differ{sch: sch} }

// NewWithOptions returns a Differ with explicit options.
func NewWithOptions(sch *sig.Schema, opts Options) *Differ {
	return &Differ{sch: sch, opts: opts}
}

// Schema returns the schema the differ validates trees against.
func (d *Differ) Schema() *sig.Schema { return d.sch }

// Result carries the outcome of a diff: the edit script transforming the
// source into the target, and the patched tree, which reuses source
// subtrees (keeping their URIs) plus freshly loaded nodes and can serve as
// the source of a subsequent diff.
type Result struct {
	Script  *truechange.Script
	Patched *tree.Node
}

// Scratch holds the reusable per-invocation state of the algorithm: the
// subtree registry, the assignment maps, the edit buffer, and the selection
// heap. Allocating these dominates the fixed cost of small diffs, so
// high-throughput callers (the batch engine's workers) recycle one Scratch
// across many diffs instead of allocating fresh maps each time.
//
// A Scratch is not safe for concurrent use; use one per goroutine. Reuse
// is invisible in the output: a recycled Scratch produces scripts
// identical to a fresh one.
type Scratch struct {
	reg registry
	// dstOf maps each assigned source subtree to its target partner, and
	// srcOf each assigned target subtree to its source partner. One map per
	// side lets a node that occurs in both trees be assigned on each side.
	dstOf, srcOf map[*tree.Node]*tree.Node
	buf          *truechange.Buffer
	heap         nodeHeap
	queue        []*tree.Node
	phases       telemetry.PhaseTimes
}

// PhaseTimes returns the per-phase durations of the most recent DiffScratch
// run through this scratch (zeroed on entry to each run). The engine reads
// it after every diff to feed its phase histograms.
func (s *Scratch) PhaseTimes() telemetry.PhaseTimes { return s.phases }

// NewScratch returns an empty Scratch ready for DiffScratch.
func NewScratch() *Scratch {
	return &Scratch{
		reg:   newRegistry(),
		dstOf: make(map[*tree.Node]*tree.Node),
		srcOf: make(map[*tree.Node]*tree.Node),
		buf:   truechange.NewBuffer(),
	}
}

// Reset clears the scratch state while keeping its allocations.
func (s *Scratch) Reset() {
	s.reg.reset()
	clear(s.dstOf)
	clear(s.srcOf)
	s.buf.Reset()
	s.heap.reset()
	clear(s.queue)
	s.queue = s.queue[:0]
	s.phases = telemetry.PhaseTimes{}
}

// Diff compares source against target and returns the edit script and
// patched tree (the paper's compareTo). Fresh URIs for loaded nodes are
// drawn from alloc, which must dominate every URI in source; passing the
// allocator the source was built with guarantees that. If alloc is nil,
// Diff allocates one that reserves the largest URI occurring in source.
//
// A *tree.Node that occurs in both trees is matched like any other equal
// pair, so a target may share unchanged subtrees with its source (as a
// reparse does). No node may occur twice within one tree. Diff does not
// mutate either tree.
func (d *Differ) Diff(source, target *tree.Node, alloc *uri.Allocator) (*Result, error) {
	return d.DiffScratch(context.Background(), source, target, alloc, NewScratch(), nil)
}

// DiffScratch is Diff drawing its working state from s, which the caller
// may recycle across any number of diffs (the scratch is reset on entry,
// also after an abort). s must not be used by two goroutines at once.
//
// ctx carries the diff's per-diff hooks: a telemetry.Tracer attached with
// telemetry.ContextWithTracer receives the four phases, and an ExplainSink
// attached with ContextWithExplain receives the Explanation. A nil ctx is
// treated as context.Background(). ctx is not polled for cancellation;
// cp is.
//
// Each step is one function (prepare is allocFor, checkSchema and
// Scratch.Reset; then assignShares, assignSubtrees, computeEdits), so a
// CPU profile isolates a step by its name, e.g.
// go tool pprof -focus assignShares.
//
// cp, when non-nil, is polled every Options.CheckpointEvery processed
// nodes across all four phases — schema validation walks, share
// assignment, candidate selection, and edit emission — and its error, if
// any, aborts the diff immediately and is returned wrapped; the partially
// built script is discarded. CtxCheckpoint builds one from ctx.
func (d *Differ) DiffScratch(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator, s *Scratch, cp Checkpoint) (res *Result, err error) {
	if source == nil || target == nil {
		return nil, fmt.Errorf("truediff: %w", derrors.ErrNilTree)
	}
	began := time.Now()
	every := d.opts.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	r := &run{sch: d.sch, opts: d.opts, s: s, cp: cp, cpEvery: every, cpLeft: every}
	sink := ExplainFromContext(ctx)
	if sink != nil {
		r.explain = newExplainState(d.opts.Equiv == ExactOnly)
	}
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(diffAbort)
			if !ok {
				panic(p)
			}
			res, err = nil, fmt.Errorf("truediff: diff aborted: %w", a.err)
		}
	}()

	// Step 1 happened at tree construction: every node carries its
	// structure and literal digests and the schema it was validated
	// against; the per-diff residue (allocator derivation, the schema check,
	// O(1) for trees built against the differ's schema, and the scratch
	// reset) is the prepare phase.
	r.alloc = allocFor(source, alloc)
	if err := d.checkSchema(source, r); err != nil {
		return nil, err
	}
	if err := d.checkSchema(target, r); err != nil {
		return nil, err
	}
	s.Reset()
	// A diff that passed validation reports one Phase per step in order;
	// failed validation reports nothing.
	tr := telemetry.TracerFromContext(ctx)
	var mark time.Time
	s.phase(tr, telemetry.PhasePrepare, began, &mark)
	r.assignShares(source, target) // step 2
	s.phase(tr, telemetry.PhaseShares, mark, &mark)
	r.assignSubtrees(target) // step 3
	s.phase(tr, telemetry.PhaseSelect, mark, &mark)
	patched := r.computeEdits(source, target, truechange.RootRef, sig.RootLink) // step 4
	s.phase(tr, telemetry.PhaseEmit, mark, &mark)
	if sink != nil {
		sink.ExplainDiff(r.explain.finish(source, target))
	}
	return &Result{Script: s.buf.Script(), Patched: patched}, nil
}

// allocFor returns alloc, or for a nil alloc a fresh allocator that
// reserves every URI of source, so loads are numbered past the source
// (the paper's contract that the allocator dominates the source). It is
// the one nil-allocator rule of every entry point that diffs a source.
func allocFor(source *tree.Node, alloc *uri.Allocator) *uri.Allocator {
	if alloc == nil {
		alloc = uri.NewAllocator()
		tree.Walk(source, func(n *tree.Node) { alloc.Reserve(n.URI) })
	}
	return alloc
}

// phase closes one phase span: it records the duration since start into
// the scratch, forwards it to the tracer, and advances *mark to now.
func (s *Scratch) phase(tr telemetry.Tracer, p telemetry.Phase, start time.Time, mark *time.Time) {
	now := time.Now()
	d := now.Sub(start)
	s.phases[p] = d
	if tr != nil {
		tr.Phase(p, d)
	}
	*mark = now
}

// checkSchema verifies every tag of the tree is declared in the differ's
// schema, so trees built against a different schema fail cleanly. A tree
// whose schema record is the differ's schema was validated against it
// node by node when it was built, and schemas only grow, so the check is
// O(1) for it; any other tree is walked. A non-nil r threads the run's
// checkpoint through the walk, so even the prepare phase of a checked diff
// honours cancellation.
func (d *Differ) checkSchema(t *tree.Node, r *run) error {
	if t.Schema() == d.sch {
		return nil
	}
	var bad sig.Tag
	tree.Walk(t, func(n *tree.Node) {
		if r != nil {
			r.tick()
		}
		if bad == "" && d.sch.Lookup(n.Tag) == nil {
			bad = n.Tag
		}
	})
	if bad != "" {
		return fmt.Errorf("truediff: %w: tree uses tag %s, which is not declared in schema %q",
			derrors.ErrSchemaMismatch, bad, d.sch.Name())
	}
	return nil
}

// InitialScript returns a well-typed initializing edit script (Definition
// 3.2) that builds target from the empty tree: loads for every node,
// bottom-up, followed by an attach to the pre-defined root.
func (d *Differ) InitialScript(target *tree.Node, alloc *uri.Allocator) (*Result, error) {
	if target == nil {
		return nil, fmt.Errorf("truediff: %w", derrors.ErrNilTree)
	}
	if err := d.checkSchema(target, nil); err != nil {
		return nil, err
	}
	if alloc == nil {
		alloc = uri.NewAllocator()
	}
	r := &run{sch: d.sch, opts: d.opts, s: NewScratch(), alloc: alloc}
	loaded := r.loadUnassigned(target)
	r.s.buf.Add(truechange.Attach{Node: ref(loaded), Link: sig.RootLink, Parent: truechange.RootRef})
	return &Result{Script: r.s.buf.Script(), Patched: loaded}, nil
}

// run is the per-invocation state of the algorithm: the configuration plus
// a borrowed Scratch. The scratch's dstOf and srcOf maps record the subtree
// assignment between source and target subtrees, one direction each
// (paper: the assigned field of Diffable).
type run struct {
	sch   *sig.Schema
	opts  Options
	s     *Scratch
	alloc *uri.Allocator
	// external marks runs whose assignment came from an outside matching
	// (DiffWithMatching). truediff's own assignment guarantees that the
	// descendants of an assigned pair carry no assignments of their own
	// (deregisterSubtree maintains this), so assigned pairs can be morphed
	// wholesale by updateLits. External matchings give no such guarantee:
	// the morph must recurse node by node so descendants assigned across
	// the pair's boundary are detached and reused where they belong.
	external bool
	// cp is the cooperative abort hook of a checked run (nil otherwise);
	// tick polls it once per cpEvery processed nodes.
	cp      Checkpoint
	cpEvery int
	cpLeft  int
	// explain accumulates per-edit provenance; nil unless an ExplainSink is
	// installed, so the hot path pays one pointer check per hook.
	explain *explainState
}

// tick counts one processed node and, every cpEvery nodes of a checked
// run, polls the checkpoint. A checkpoint error unwinds the diffing
// recursion via diffAbort, which DiffScratch recovers and returns.
func (r *run) tick() {
	if r.cp == nil {
		return
	}
	r.cpLeft--
	if r.cpLeft > 0 {
		return
	}
	r.cpLeft = r.cpEvery
	if err := r.cp(); err != nil {
		panic(diffAbort{err})
	}
}

// candidateKey returns the key under which subtrees share a reuse class:
// the structure digest, with the literal digest too under ExactOnly.
func (r *run) candidateKey(n *tree.Node) tree.ExactKey {
	if r.opts.Equiv == ExactOnly {
		return n.ExactHash()
	}
	return tree.ExactKey{Struct: n.StructHash()}
}

// preferKey returns the key used to select preferred (exact) candidates.
func (r *run) preferKey(n *tree.Node) tree.Digest { return n.LitHash() }

// assign records a subtree assignment in both directions.
func (r *run) assign(src, dst *tree.Node) {
	r.s.dstOf[src] = dst
	r.s.srcOf[dst] = src
}

// unassign dissolves a subtree assignment in both directions.
func (r *run) unassign(src, dst *tree.Node) {
	delete(r.s.dstOf, src)
	delete(r.s.srcOf, dst)
}

// --- Step 2: find reuse candidates ------------------------------------

// assignShares simultaneously traverses source and target, registering
// source subtrees as available resources of their shares. Equivalent pairs
// at matching positions (equal candidate keys) are assigned preemptively;
// along spines of equal tags only the spine node itself becomes available,
// while fully mismatched source subtrees register all their nodes (paper
// §4.2). Only source nodes create shares: the target side would only add
// empty ones, and selection treats a missing share like an empty one, so
// a mismatched target subtree is not walked.
func (r *run) assignShares(src, dst *tree.Node) {
	r.tick()
	key := r.candidateKey(src)
	if key == r.candidateKey(dst) {
		r.assign(src, dst) // preemptive: reuse in place, stop recursing
		if r.explain != nil {
			r.explain.preassigned(r, dst)
		}
		return
	}
	if src.Tag == dst.Tag {
		r.s.reg.shareFor(key).registerAvailable(src, r.preferKey(src))
		for i := range src.Kids {
			r.assignShares(src.Kids[i], dst.Kids[i])
		}
		return
	}
	tree.Walk(src, func(n *tree.Node) {
		r.tick()
		r.s.reg.shareFor(r.candidateKey(n)).registerAvailable(n, r.preferKey(n))
	})
}

// --- Step 3: select reuse candidates -----------------------------------

// nodeHeap is a max-heap of target subtrees ordered by height, with FIFO
// tie-breaking for determinism.
type nodeHeap struct {
	nodes []*tree.Node
	seq   []int
	next  int
}

func (h *nodeHeap) Len() int { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool {
	if h.nodes[i].Height() != h.nodes[j].Height() {
		return h.nodes[i].Height() > h.nodes[j].Height()
	}
	return h.seq[i] < h.seq[j]
}
func (h *nodeHeap) Swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
}
func (h *nodeHeap) Push(x any) {
	h.nodes = append(h.nodes, x.(*tree.Node))
	h.seq = append(h.seq, h.next)
	h.next++
}
func (h *nodeHeap) Pop() any {
	n := h.nodes[len(h.nodes)-1]
	h.nodes[len(h.nodes)-1] = nil
	h.nodes = h.nodes[:len(h.nodes)-1]
	h.seq = h.seq[:len(h.seq)-1]
	return n
}

// reset empties the heap keeping its backing arrays.
func (h *nodeHeap) reset() {
	clear(h.nodes)
	h.nodes = h.nodes[:0]
	h.seq = h.seq[:0]
	h.next = 0
}

// assignSubtrees traverses the target's subtrees in highest-first order,
// acquiring available source subtrees greedily: first preferred (exact)
// candidates for a whole height level, then any remaining candidates.
// Unassigned subtrees descend into their children (paper §4.3).
func (r *run) assignSubtrees(target *tree.Node) {
	if r.opts.Order == FIFO {
		r.assignSubtreesFIFO(target)
		return
	}
	h := &r.s.heap
	heap.Push(h, target)
	for h.Len() > 0 {
		level := h.nodes[0].Height()
		var nexts []*tree.Node
		for h.Len() > 0 && h.nodes[0].Height() == level {
			nexts = append(nexts, heap.Pop(h).(*tree.Node))
		}
		unassigned := r.selectTrees(nexts, true)
		unassigned = r.selectTrees(unassigned, false)
		for _, n := range unassigned {
			for _, k := range n.Kids {
				heap.Push(h, k)
			}
		}
	}
}

// assignSubtreesFIFO is the ablation variant: plain breadth-first order,
// trying the preferred candidate then any candidate per node.
func (r *run) assignSubtreesFIFO(target *tree.Node) {
	queue := append(r.s.queue, target)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if r.s.srcOf[n] != nil {
			continue
		}
		rest := r.selectTrees([]*tree.Node{n}, true)
		rest = r.selectTrees(rest, false)
		for _, u := range rest {
			queue = append(queue, u.Kids...)
		}
	}
}

// selectTrees tries to acquire a reuse candidate for each target subtree in
// trees, returning the subtrees that remain unassigned. With preferred set,
// only literally equivalent (exact) candidates are taken.
func (r *run) selectTrees(trees []*tree.Node, preferred bool) []*tree.Node {
	if preferred && r.opts.Equiv != StructuralWithLiteralPreference {
		// ExactOnly: candidates are exact by construction, the any-pass
		// suffices. StructuralNoPreference: skip the preference pass.
		return trees
	}
	var unassigned []*tree.Node
	for _, n := range trees {
		r.tick()
		if r.s.srcOf[n] != nil {
			continue // preemptively assigned in step 2
		}
		s := r.s.reg.lookup(r.candidateKey(n))
		var src *tree.Node
		var scanned, avail int
		if s != nil {
			avail = len(s.member)
			if preferred {
				src, scanned = s.takePreferred(r.preferKey(n))
			} else {
				src, scanned = s.takeAny()
			}
		}
		if x := r.explain; x != nil {
			d := x.decisionFor(r, n, avail)
			d.considered += scanned
			if src != nil {
				d.acquired = true
				d.preferred = preferred
			}
		}
		if src == nil {
			unassigned = append(unassigned, n)
			continue
		}
		r.assign(src, n)
		r.deregisterSubtree(src, n)
	}
	return unassigned
}

// deregisterSubtree finalizes the acquisition of src by the target subtree
// dst. All strict descendants of src are withdrawn from their shares so
// they cannot be reused elsewhere, and stale assignments hanging off either
// side are dissolved (paper §4.3):
//
//   - a preemptively assigned descendant of src frees its target partner,
//     which is required again and will look for another candidate when its
//     height level is processed;
//   - a preemptively assigned descendant of dst frees its source partner,
//     which is no longer spoken for — it becomes available again, since dst
//     is now covered wholesale by src.
//
// The source side is processed first so that pairs nested inside both
// acquired trees are dissolved without resurrecting nodes of src.
// src itself was already removed from its share by take*.
func (r *run) deregisterSubtree(src, dst *tree.Node) {
	for _, kid := range src.Kids {
		tree.Walk(kid, func(n *tree.Node) {
			if s := r.s.reg.lookup(r.candidateKey(n)); s != nil {
				s.removeAvailable(n)
			}
			if partner := r.s.dstOf[n]; partner != nil {
				if r.explain != nil {
					r.explain.revoke(partner)
				}
				r.unassign(n, partner)
			}
		})
	}
	for _, kid := range dst.Kids {
		tree.Walk(kid, func(n *tree.Node) {
			if partner := r.s.srcOf[n]; partner != nil {
				r.unassign(partner, n)
				r.s.reg.shareFor(r.candidateKey(partner)).registerAvailable(partner, r.preferKey(partner))
			}
		})
	}
}

// --- Step 4: compute edit script ----------------------------------------

func ref(n *tree.Node) truechange.NodeRef {
	return truechange.NodeRef{Tag: n.Tag, URI: n.URI}
}

// kidArgs builds the kid argument list of a Load/Unload for node n.
func (r *run) kidArgs(n *tree.Node) []truechange.KidArg {
	g := r.sch.Lookup(n.Tag)
	if len(g.Kids) == 0 {
		return nil
	}
	args := make([]truechange.KidArg, len(g.Kids))
	for i, spec := range g.Kids {
		args[i] = truechange.KidArg{Link: spec.Link, URI: n.Kids[i].URI}
	}
	return args
}

// litArgs builds the literal argument list for node n.
func (r *run) litArgs(n *tree.Node) []truechange.LitArg {
	g := r.sch.Lookup(n.Tag)
	if len(g.Lits) == 0 {
		return nil
	}
	args := make([]truechange.LitArg, len(g.Lits))
	for i, spec := range g.Lits {
		args[i] = truechange.LitArg{Link: spec.Link, Value: n.Lits[i]}
	}
	return args
}

func litsEqual(a, b *tree.Node) bool {
	if len(a.Lits) != len(b.Lits) {
		return false
	}
	for i := range a.Lits {
		if !tree.LitEqual(a.Lits[i], b.Lits[i]) {
			return false
		}
	}
	return true
}

// computeEdits compares src against dst at the position (parent, link) in
// the source tree and emits the edits that transform src into dst,
// returning the patched subtree (paper §4.4). The patched subtree is
// always content-identical to dst (it differs only in URIs), which is what
// lets the rebuild reuse dst's digests via tree.Rebuilt instead of
// rehashing.
func (r *run) computeEdits(src, dst *tree.Node, parent truechange.NodeRef, link sig.Link) *tree.Node {
	r.tick()
	if p := r.s.dstOf[src]; p != nil && p == dst {
		// src stays in place; it is morphed into dst (literal updates only
		// for the structurally equivalent pairs truediff's own assignment
		// produces; full recursion for externally matched pairs).
		return r.morphAssigned(src, dst)
	}
	if r.s.dstOf[src] == nil && r.s.srcOf[dst] == nil {
		if t := r.computeEditsRec(src, dst, parent, link); t != nil {
			return t
		}
	}
	// Replace the subtree src by dst: detach src, unload its unassigned
	// nodes, load dst's unassigned nodes (reusing assigned source
	// subtrees), and attach the result.
	detach := truechange.Detach{Node: ref(src), Link: link, Parent: parent}
	r.s.buf.Add(detach)
	if x := r.explain; x != nil {
		x.record(detach, r.detachProvenance(src, dst))
	}
	r.unloadUnassigned(src)
	t := r.loadUnassigned(dst)
	attach := truechange.Attach{Node: ref(t), Link: link, Parent: parent}
	r.s.buf.Add(attach)
	if x := r.explain; x != nil {
		x.record(attach, r.attachProvenance(dst))
	}
	return t
}

// detachProvenance explains why src is detached rather than kept in place
// opposite dst (the replace branch of computeEdits).
func (r *run) detachProvenance(src, dst *tree.Node) EditProvenance {
	p := EditProvenance{}
	switch {
	case r.s.dstOf[src] != nil:
		// src was acquired as a reuse candidate by some other target
		// subtree; it cannot stay here.
		p.Reason = ReasonSourceClaimed
		partner := r.s.dstOf[src]
		p.Detail = fmt.Sprintf("acquired by target %s subtree at height %d", partner.Tag, partner.Height())
		r.explain.fill(&p, r.explain.decisions[partner])
	case src.Tag != dst.Tag:
		p.Reason = ReasonTagMismatch
		p.Detail = fmt.Sprintf("%s≠%s", src.Tag, dst.Tag)
	case r.s.srcOf[dst] != nil:
		// The traversal could have aligned the nodes, but dst acquired a
		// different source candidate during selection.
		p.Reason = ReasonMove
		p.Detail = "target position filled by a selected candidate"
		r.explain.fill(&p, r.explain.decisions[dst])
	default:
		p.Reason = ReasonLitMismatch
		p.Detail = "tags agree, literals differ"
	}
	return p
}

// attachProvenance explains what the subtree attached at dst's position is:
// a moved reuse candidate or a freshly built subtree.
func (r *run) attachProvenance(dst *tree.Node) EditProvenance {
	p := EditProvenance{}
	if r.s.srcOf[dst] != nil {
		p.Reason = ReasonMove
		p.Detail = "reused source subtree selected for this target"
	} else {
		p.Reason = ReasonFreshSubtree
		p.Detail = "no candidate covered the whole subtree"
	}
	r.explain.fill(&p, r.explain.decisions[dst])
	return p
}

// computeEditsRec continues the simultaneous traversal through src and dst
// if their tags and literals coincide (with the UpdateOnLitMismatch
// ablation, differing literals are updated instead of failing). It returns
// nil if the nodes cannot be aligned.
func (r *run) computeEditsRec(src, dst *tree.Node, parent truechange.NodeRef, link sig.Link) *tree.Node {
	if src.Tag != dst.Tag {
		return nil
	}
	litsOK := litsEqual(src, dst)
	if !litsOK && !r.opts.UpdateOnLitMismatch {
		return nil
	}
	if !litsOK {
		up := truechange.Update{Node: ref(src), Old: r.litArgs(src), New: r.litArgs(dst)}
		r.s.buf.Add(up)
		if x := r.explain; x != nil {
			x.record(up, EditProvenance{Reason: ReasonLitUpdate,
				Detail: "traversal crossed a literal mismatch (UpdateOnLitMismatch)"})
		}
	}
	g := r.sch.Lookup(src.Tag)
	srcRef := ref(src)
	kids := make([]*tree.Node, len(src.Kids))
	for i := range src.Kids {
		kids[i] = r.computeEdits(src.Kids[i], dst.Kids[i], srcRef, g.Kids[i].Link)
	}
	return tree.Rebuilt(dst, r.alloc, src.URI, kids)
}

// morphAssigned transforms the assigned source subtree in place so it
// equals dst. For structurally equivalent pairs (the only kind truediff's
// own hash-based assignment produces) this reduces to literal updates; for
// externally supplied matchings (DiffWithMatching) the pair may differ
// below the root, so the traversal recurses into the children — the pair's
// tags are equal by construction, so the arities line up.
func (r *run) morphAssigned(src, dst *tree.Node) *tree.Node {
	if !r.external && src.StructHash() == dst.StructHash() {
		return r.updateLits(src, dst)
	}
	if !litsEqual(src, dst) {
		up := truechange.Update{Node: ref(src), Old: r.litArgs(src), New: r.litArgs(dst)}
		r.s.buf.Add(up)
		if x := r.explain; x != nil {
			x.record(up, EditProvenance{Reason: ReasonLitUpdate,
				Detail: "reconciles literals of an externally matched pair"})
		}
	}
	g := r.sch.Lookup(src.Tag)
	srcRef := ref(src)
	kids := make([]*tree.Node, len(src.Kids))
	for i := range src.Kids {
		kids[i] = r.computeEdits(src.Kids[i], dst.Kids[i], srcRef, g.Kids[i].Link)
	}
	return tree.Rebuilt(dst, r.alloc, src.URI, kids)
}

// updateLits reconciles the literals of the structurally equivalent pair
// (src, dst): it emits an Update for every node whose literals differ and
// returns the patched subtree, which keeps src's URIs and carries dst's
// literals.
func (r *run) updateLits(src, dst *tree.Node) *tree.Node {
	r.tick()
	if src.LitHash() == dst.LitHash() {
		return src // equal everywhere, reuse as is
	}
	kids := make([]*tree.Node, len(src.Kids))
	for i := range src.Kids {
		kids[i] = r.updateLits(src.Kids[i], dst.Kids[i])
	}
	if !litsEqual(src, dst) {
		up := truechange.Update{Node: ref(src), Old: r.litArgs(src), New: r.litArgs(dst)}
		r.s.buf.Add(up)
		if x := r.explain; x != nil {
			x.record(up, EditProvenance{Reason: ReasonLitUpdate,
				Detail: "reconciles literals of a reused structural candidate"})
		}
	}
	return tree.Rebuilt(dst, r.alloc, src.URI, kids)
}

// unloadUnassigned unloads the subtree src top-down, skipping subtrees that
// are assigned for reuse elsewhere: those stay behind as unattached roots,
// which their parent's Unload released.
func (r *run) unloadUnassigned(src *tree.Node) {
	r.tick()
	if r.s.dstOf[src] != nil {
		return
	}
	un := truechange.Unload{Node: ref(src), Kids: r.kidArgs(src), Lits: r.litArgs(src)}
	r.s.buf.Add(un)
	if x := r.explain; x != nil {
		p := EditProvenance{CandidateKey: x.shortKey(r.candidateKey(src)), Height: src.Height()}
		if demand := x.demand[r.candidateKey(src)]; demand > 0 {
			p.Reason = ReasonLostRace
			p.Detail = fmt.Sprintf("class demanded by %d target subtree(s), satisfied by other candidates", demand)
		} else {
			p.Reason = ReasonNoDemand
			p.Detail = "no target subtree demanded this equivalence class"
		}
		x.record(un, p)
	}
	for _, k := range src.Kids {
		r.unloadUnassigned(k)
	}
}

// loadUnassigned produces the subtree dst in the source document: assigned
// subtrees are reused (with literal updates), everything else is loaded
// bottom-up with fresh URIs. It returns the resulting tree.
func (r *run) loadUnassigned(dst *tree.Node) *tree.Node {
	r.tick()
	if src := r.s.srcOf[dst]; src != nil {
		return r.morphAssigned(src, dst)
	}
	kids := make([]*tree.Node, len(dst.Kids))
	for i, k := range dst.Kids {
		kids[i] = r.loadUnassigned(k)
	}
	n := tree.Rebuilt(dst, r.alloc, r.alloc.Fresh(), kids)
	ld := truechange.Load{Node: ref(n), Kids: r.kidArgs(n), Lits: r.litArgs(n)}
	r.s.buf.Add(ld)
	if x := r.explain; x != nil {
		p := EditProvenance{Reason: ReasonNoCandidate}
		if d := x.decisions[dst]; d != nil {
			x.fill(&p, d)
			if d.considered > 0 {
				p.Detail = fmt.Sprintf("class exhausted after scanning %d candidate(s)", d.considered)
			} else {
				p.Detail = "equivalence class offered no source candidate"
			}
		} else {
			p.CandidateKey = x.shortKey(r.candidateKey(dst))
			p.Height = dst.Height()
			p.Detail = "no source subtree in this equivalence class"
		}
		x.record(ld, p)
	}
	return n
}
