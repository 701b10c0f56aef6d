package truediff

import (
	"context"
	"encoding/hex"
	"fmt"

	"repro/internal/tree"
	"repro/internal/truechange"
)

// Reason classifies why the differ emitted an edit: what about the
// source/target pair (or about candidate selection) forced the operation.
// Reasons are stable strings so they can be logged and asserted on.
type Reason string

const (
	// ReasonTagMismatch: the simultaneous traversal hit nodes with
	// different tags, so the source subtree is replaced wholesale.
	ReasonTagMismatch Reason = "tag-mismatch"
	// ReasonLitMismatch: tags agree but literals differ and the traversal
	// is not allowed to update across the node (the paper's rule), so the
	// subtree is replaced.
	ReasonLitMismatch Reason = "literal-mismatch"
	// ReasonSourceClaimed: the source subtree at this position was acquired
	// as a reuse candidate by a different target subtree, so it cannot stay
	// in place and is detached (it will reappear where its acquirer puts it).
	ReasonSourceClaimed Reason = "source-claimed-elsewhere"
	// ReasonMove: the attached subtree is a reused source candidate that was
	// selected for this target position (step 3) — a subtree move.
	ReasonMove Reason = "subtree-moved"
	// ReasonFreshSubtree: the attached subtree was built from fresh loads
	// (possibly with reused descendants), because no candidate covered the
	// whole target subtree.
	ReasonFreshSubtree Reason = "fresh-subtree"
	// ReasonNoCandidate: a Load was emitted because the target node's
	// equivalence class offered no (remaining) source candidate.
	ReasonNoCandidate Reason = "no-candidate"
	// ReasonNoDemand: an Unload was emitted because no target subtree ever
	// demanded the node's equivalence class during selection.
	ReasonNoDemand Reason = "no-demand"
	// ReasonLostRace: an Unload was emitted although the node's class was
	// demanded — the demand was satisfied by other candidates of the class.
	ReasonLostRace Reason = "candidate-not-selected"
	// ReasonLitUpdate: an Update reconciling the literals of a reused
	// (structurally equivalent) subtree with the target's literals.
	ReasonLitUpdate Reason = "literal-update"
)

// EditProvenance records why one edit of a script was emitted and which
// candidate-selection decision produced it. Explanation.Edits is
// index-aligned with Script.Edits: provenance i annotates edit i.
type EditProvenance struct {
	// Index is the edit's position in Script.Edits.
	Index int `json:"index"`
	// Op names the edit operation (detach, attach, load, unload, update).
	Op string `json:"op"`
	// Node is the edit's subject, rendered as Tag#URI.
	Node string `json:"node"`
	// Reason classifies why the edit was emitted.
	Reason Reason `json:"reason"`
	// Detail is a human-readable elaboration of the reason.
	Detail string `json:"detail,omitempty"`
	// CandidateKey is the (truncated) equivalence-class key the decision was
	// made under: the structural hash, or under ExactOnly the structural
	// hash followed by the literal hash, half as many digits of each.
	CandidateKey string `json:"candidate_key,omitempty"`
	// PreferKey is the (truncated) literal hash used to prefer exact copies.
	PreferKey string `json:"prefer_key,omitempty"`
	// Height is the subtree height at which the selection decision was made.
	Height int `json:"height,omitempty"`
	// Preferred reports that the preferred (literally exact) candidate won.
	Preferred bool `json:"preferred,omitempty"`
	// Preemptive reports that the pair was assigned during step 2 (equal
	// subtrees at matching positions) rather than by heap selection.
	Preemptive bool `json:"preemptive,omitempty"`
	// Considered is how many candidates selection scanned for this target
	// subtree (including entries removed by lazy deletion).
	Considered int `json:"considered,omitempty"`
	// Available is the number of candidates the class offered when this
	// target subtree first looked it up.
	Available int `json:"available,omitempty"`
}

// String renders the provenance as a one-line annotation.
func (p EditProvenance) String() string {
	s := fmt.Sprintf("%s %s: %s", p.Op, p.Node, p.Reason)
	if p.Detail != "" {
		s += " (" + p.Detail + ")"
	}
	if p.CandidateKey != "" {
		s += fmt.Sprintf(" [class %s", p.CandidateKey)
		if p.Preferred {
			s += ", exact"
		}
		if p.Preemptive {
			s += ", preemptive"
		}
		if p.Considered > 0 {
			s += fmt.Sprintf(", considered %d/%d", p.Considered, p.Available)
		}
		s += fmt.Sprintf(", height %d]", p.Height)
	}
	return s
}

// Explanation is the structured per-edit annotation of one diff: exactly
// one EditProvenance per script edit, in script order, plus summary counts
// of the selection phase.
type Explanation struct {
	// SourceSize and TargetSize are the node counts of the diffed trees.
	SourceSize int `json:"source_size"`
	TargetSize int `json:"target_size"`
	// Preemptive counts subtree pairs assigned during step 2.
	Preemptive int `json:"preemptive"`
	// Selected counts candidates acquired by heap selection (step 3).
	Selected int `json:"selected"`
	// PreferredWins counts selections where the exact candidate won.
	PreferredWins int `json:"preferred_wins"`
	// Revoked counts preemptive assignments dissolved because one side was
	// acquired wholesale by a larger reuse (paper §4.3).
	Revoked int `json:"revoked"`
	// Edits annotates Script.Edits index by index.
	Edits []EditProvenance `json:"edits"`
}

// ExplainCollector receives the Explanation of every diff whose context
// carries it (see ContextWithExplain): the diff sets Last when it
// finishes. It is NOT concurrency-safe; use one per goroutine (the engine
// attaches one per pair via the context). A diff without a collector pays
// one pointer check per diff and one per emitted edit.
type ExplainCollector struct {
	Last *Explanation
}

// explainCtxKey carries a request-scoped ExplainCollector through a
// context.
type explainCtxKey struct{}

// ContextWithExplain returns a context carrying col; a diff run with that
// context (DiffScratch, or the engine's per-pair context) delivers its
// Explanation to col. It is the only route provenance leaves a diff by.
func ContextWithExplain(ctx context.Context, col *ExplainCollector) context.Context {
	return context.WithValue(ctx, explainCtxKey{}, col)
}

// explainFromContext extracts the collector installed by
// ContextWithExplain.
func explainFromContext(ctx context.Context) *ExplainCollector {
	col, _ := ctx.Value(explainCtxKey{}).(*ExplainCollector)
	return col
}

// keyDigits is how many hex digits of a hash key provenance records show:
// enough to correlate decisions within one diff, short enough to read.
const keyDigits = 12

// shortDigest renders a digest as its first keyDigits hex digits.
func shortDigest(d tree.Digest) string { return hex.EncodeToString(d[:keyDigits/2]) }

// shortKey renders a candidate key as keyDigits hex digits. An exact key
// (ExactOnly) shows half as many digits of each of its two digests, so
// classes that differ only in literals print differently.
func (x *explainState) shortKey(key tree.ExactKey) string {
	if !x.exact {
		return shortDigest(key.Struct)
	}
	return hex.EncodeToString(key.Struct[:keyDigits/4]) + hex.EncodeToString(key.Lit[:keyDigits/4])
}

// selDecision records the selection outcome for one target subtree: how its
// candidate class was probed and whether a candidate was acquired.
type selDecision struct {
	key        tree.ExactKey // candidate key (raw, not truncated)
	prefer     tree.Digest   // preference key (raw)
	height     int
	considered int  // candidates scanned across both passes
	available  int  // class size at first lookup
	acquired   bool // a source candidate was assigned
	preferred  bool // ...by the preferred (exact) pass
	preemptive bool // ...preemptively during step 2
	revoked    bool // a preemptive assignment was later dissolved
}

// explainState accumulates provenance during one diff run. It exists only
// when an ExplainCollector is installed; every hook in the hot path is
// guarded by a single nil check.
type explainState struct {
	// exact reports that candidate keys are exact keys (ExactOnly).
	exact bool
	// decisions maps each target subtree that went through candidate
	// lookup (or was preemptively assigned) to its selection outcome.
	decisions map[*tree.Node]*selDecision
	// demand counts, per candidate key, how many distinct target subtrees
	// looked the class up during step 3 — the signal distinguishing
	// "no demand" from "lost the race" when explaining Unloads.
	demand map[tree.ExactKey]int
	// provNeg and provPos mirror the edit buffer's negative/positive
	// halves, so the final Explanation aligns index by index with the
	// script (negative edits are ordered before positive ones).
	provNeg []EditProvenance
	provPos []EditProvenance
	revoked int
}

func newExplainState(exact bool) *explainState {
	return &explainState{
		exact:     exact,
		decisions: make(map[*tree.Node]*selDecision),
		demand:    make(map[tree.ExactKey]int),
	}
}

// decisionFor returns the selection record for target subtree n, creating
// it on first lookup (counting the class demand once per subtree).
func (x *explainState) decisionFor(r *run, n *tree.Node, available int) *selDecision {
	if d := x.decisions[n]; d != nil {
		return d
	}
	key := r.candidateKey(n)
	d := &selDecision{
		key:       key,
		prefer:    r.preferKey(n),
		height:    n.Height(),
		available: available,
	}
	x.decisions[n] = d
	x.demand[key]++
	return d
}

// preassigned records the preemptive step-2 assignment of dst.
func (x *explainState) preassigned(r *run, dst *tree.Node) {
	x.decisions[dst] = &selDecision{
		key:        r.candidateKey(dst),
		prefer:     r.preferKey(dst),
		height:     dst.Height(),
		acquired:   true,
		preemptive: true,
	}
}

// revoke marks dst's preemptive assignment as dissolved; dst will look for
// another candidate when its height level is processed.
func (x *explainState) revoke(dst *tree.Node) {
	if d := x.decisions[dst]; d != nil && d.preemptive {
		d.revoked = true
		d.acquired = false
		x.revoked++
	}
}

// record appends the provenance p for edit e, routed to the buffer half e
// lands in so the final concatenation aligns with Script.Edits.
func (x *explainState) record(e truechange.Edit, p EditProvenance) {
	p.Op = opName(e)
	p.Node = editNode(e).String()
	if e.Negative() {
		x.provNeg = append(x.provNeg, p)
	} else {
		x.provPos = append(x.provPos, p)
	}
}

// fill copies the selection decision d into the provenance record p.
func (x *explainState) fill(p *EditProvenance, d *selDecision) {
	if d == nil {
		return
	}
	p.CandidateKey = x.shortKey(d.key)
	p.PreferKey = shortDigest(d.prefer)
	p.Height = d.height
	p.Preferred = d.preferred
	p.Preemptive = d.preemptive
	p.Considered = d.considered
	p.Available = d.available
}

// finish assembles the Explanation: negative provenance first, then
// positive, mirroring Buffer.Script, with indices filled in.
func (x *explainState) finish(source, target *tree.Node) *Explanation {
	ex := &Explanation{
		SourceSize: source.Size(),
		TargetSize: target.Size(),
		Revoked:    x.revoked,
		Edits:      make([]EditProvenance, 0, len(x.provNeg)+len(x.provPos)),
	}
	ex.Edits = append(ex.Edits, x.provNeg...)
	ex.Edits = append(ex.Edits, x.provPos...)
	for i := range ex.Edits {
		ex.Edits[i].Index = i
	}
	for _, d := range x.decisions {
		if d.preemptive && d.acquired {
			ex.Preemptive++
		} else if d.acquired {
			ex.Selected++
			if d.preferred {
				ex.PreferredWins++
			}
		}
	}
	return ex
}

func opName(e truechange.Edit) string {
	switch e.(type) {
	case truechange.Detach:
		return "detach"
	case truechange.Attach:
		return "attach"
	case truechange.Load:
		return "load"
	case truechange.Unload:
		return "unload"
	case truechange.Update:
		return "update"
	}
	return "edit"
}

func editNode(e truechange.Edit) truechange.NodeRef {
	switch ed := e.(type) {
	case truechange.Detach:
		return ed.Node
	case truechange.Attach:
		return ed.Node
	case truechange.Load:
		return ed.Node
	case truechange.Unload:
		return ed.Node
	case truechange.Update:
		return ed.Node
	}
	return truechange.NodeRef{}
}
