// Package merge implements typed three-way merge on truechange edit
// scripts. Given an ancestor tree O and two divergent descendants A and B,
// it diffs O→A and O→B with truediff and merges the two scripts into one
// well-typed script over O. Conflict detection is a typing question, not a
// tree heuristic: the linear roots/slots discipline of the truechange type
// system (paper Fig. 3) partitions each script into change groups — the
// connected components of edits sharing a typing resource — and two groups
// from opposite sides conflict exactly when their claims on the base tree
// intersect (same slot emptied, same node updated, a node one side edits
// inside a subtree the other deletes). Groups that make the *same* change
// on both sides (up to renaming of freshly loaded URIs) are convergent and
// auto-resolve to a single copy.
//
// The merged script is verified end to end before it is returned: it must
// typecheck closed-to-closed (truechange.WellTyped), apply to the ancestor
// (mtree.Patch, transactional), and leave the patched tree closed and
// reachable (MTree.CheckClosed) — the last check catches cross-script move
// cycles, which are well-typed in the linear system but orphan both moved
// subtrees. Rejected merges and rejected applies roll back exactly via
// truechange.Invert + the transactional patch.
package merge

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/derrors"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// Policy selects what happens to conflicting change groups.
type Policy int

const (
	// PolicyFail reports conflicts as a *ConflictError and merges nothing.
	PolicyFail Policy = iota
	// PolicyOurs drops theirs' side of every conflict and keeps ours'.
	PolicyOurs
	// PolicyTheirs drops ours' side of every conflict and keeps theirs'.
	PolicyTheirs
)

func (p Policy) String() string {
	switch p {
	case PolicyFail:
		return "fail"
	case PolicyOurs:
		return "ours"
	case PolicyTheirs:
		return "theirs"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses "fail", "ours", or "theirs".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail":
		return PolicyFail, nil
	case "ours":
		return PolicyOurs, nil
	case "theirs":
		return PolicyTheirs, nil
	}
	return PolicyFail, fmt.Errorf("merge: unknown policy %q (want fail, ours, or theirs)", s)
}

// ConflictKind classifies a conflict by the typing resource contended.
type ConflictKind int

const (
	// ConflictSlot: both sides empty and refill the same child slot —
	// competing attaches, subtree replacements, or moves into one slot.
	ConflictSlot ConflictKind = iota
	// ConflictUpdateUpdate: both sides rewrite the same node's literals.
	ConflictUpdateUpdate
	// ConflictUpdateDelete: one side updates a node the other unloads.
	ConflictUpdateDelete
	// ConflictDeleteEdit: one side edits a slot of a node (attach, detach,
	// move) inside a subtree the other side deletes.
	ConflictDeleteEdit
	// ConflictDeleteDelete: both sides delete the same base node with
	// structurally different change groups (identical deletions converge
	// and are auto-resolved instead).
	ConflictDeleteDelete
	// ConflictCycle: the two sides move subtrees under each other (A moves
	// x below y while B moves y below x). Each script alone is well-typed
	// and so is their union, but patching orphans both subtrees; this is
	// detected by the post-patch reachability check.
	ConflictCycle
)

func (k ConflictKind) String() string {
	switch k {
	case ConflictSlot:
		return "slot/slot"
	case ConflictUpdateUpdate:
		return "update/update"
	case ConflictUpdateDelete:
		return "update/delete"
	case ConflictDeleteEdit:
		return "delete/edit"
	case ConflictDeleteDelete:
		return "delete/delete"
	case ConflictCycle:
		return "move-cycle"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Conflict is one contended typing resource and the two change groups
// fighting over it.
type Conflict struct {
	Kind ConflictKind
	// URI is the contended node: the slot's parent for ConflictSlot and
	// ConflictDeleteEdit, the updated/deleted node otherwise, and the
	// orphaned attach target for ConflictCycle.
	URI uri.URI
	// Slot is the contended child slot, when the conflict is about one
	// (ConflictSlot, ConflictDeleteEdit); nil otherwise.
	Slot *truechange.Slot
	// Ours and Theirs are the two competing change groups, each a
	// well-typed excerpt of its script in original edit order.
	Ours   []truechange.Edit
	Theirs []truechange.Edit
	// Resolution records how the conflict was settled: PolicyFail if it
	// was reported as an error, PolicyOurs/PolicyTheirs if a policy
	// dropped one side.
	Resolution Policy
}

func (c Conflict) String() string {
	at := fmt.Sprintf("node %s", c.URI)
	if c.Slot != nil {
		at = fmt.Sprintf("slot %s", *c.Slot)
	}
	return fmt.Sprintf("%s conflict at %s (ours %d edits, theirs %d edits)",
		c.Kind, at, len(c.Ours), len(c.Theirs))
}

// ConflictError reports a merge rejected under PolicyFail. It unwraps to
// derrors.ErrMergeConflict.
type ConflictError struct {
	Conflicts []Conflict
}

func (e *ConflictError) Error() string {
	if len(e.Conflicts) == 1 {
		return fmt.Sprintf("%v: %v", derrors.ErrMergeConflict, e.Conflicts[0])
	}
	return fmt.Sprintf("%v: %d conflicts, first: %v",
		derrors.ErrMergeConflict, len(e.Conflicts), e.Conflicts[0])
}

func (e *ConflictError) Unwrap() error { return derrors.ErrMergeConflict }

// Stats summarizes a merge.
type Stats struct {
	OursEdits    int // edit count of diff(O, A)
	TheirsEdits  int // edit count of diff(O, B)
	MergedEdits  int // edit count of the merged script
	OursGroups   int // change groups in ours
	TheirsGroups int // change groups in theirs
	Conflicts    int // conflicts detected (after convergence analysis)
	AutoResolved int // convergent group pairs collapsed to one copy
	DroppedEdits int // edits dropped by the resolution policy
}

// Result is a successful merge: a well-typed script over the ancestor,
// the conflicts a policy resolved (empty under PolicyFail, which instead
// errors on any conflict), and summary statistics.
type Result struct {
	Script    *truechange.Script
	Conflicts []Conflict
	Stats     Stats
}

// Options configures a merge.
type Options struct {
	// Policy picks a side for conflicting groups; default PolicyFail.
	Policy Policy
	// Diff configures the two underlying O→A and O→B diffs (Trees only).
	Diff truediff.Options
}

// Trees three-way merges at the tree level: it diffs base→ours and
// base→theirs through one shared URI allocator (so the two scripts' fresh
// URIs are disjoint by construction) and merges the scripts. A nil alloc
// derives one from the three trees.
func Trees(ctx context.Context, sch *sig.Schema, base, ours, theirs *tree.Node, alloc *uri.Allocator, opt Options) (*Result, error) {
	if base == nil || ours == nil || theirs == nil {
		return nil, fmt.Errorf("merge: %w", derrors.ErrNilTree)
	}
	if alloc == nil {
		alloc = uri.NewAllocator()
		for _, t := range []*tree.Node{base, ours, theirs} {
			tree.Walk(t, func(n *tree.Node) { alloc.Reserve(n.URI) })
		}
	}
	d := truediff.NewWithOptions(sch, opt.Diff)
	ra, err := d.DiffScratch(ctx, base, ours, alloc, truediff.NewScratch())
	if err != nil {
		return nil, fmt.Errorf("merge: diff base→ours: %w", err)
	}
	rb, err := d.DiffScratch(ctx, base, theirs, alloc, truediff.NewScratch())
	if err != nil {
		return nil, fmt.Errorf("merge: diff base→theirs: %w", err)
	}
	return merge(sch, base, ra.Script, rb.Script, opt)
}

// Scripts three-way merges at the script level: sa and sb must each be
// well-typed closed-to-closed and comply with the base tree. Fresh URIs
// the two scripts happen to share are renamed apart on theirs' side before
// merging.
func Scripts(sch *sig.Schema, base *tree.Node, sa, sb *truechange.Script, opt Options) (*Result, error) {
	if base == nil {
		return nil, fmt.Errorf("merge: %w", derrors.ErrNilTree)
	}
	if sa == nil || sb == nil {
		return nil, fmt.Errorf("merge: nil input script")
	}
	for side, s := range map[string]*truechange.Script{"ours": sa, "theirs": sb} {
		if err := truechange.WellTyped(sch, s); err != nil {
			return nil, fmt.Errorf("merge: %s script: %w", side, err)
		}
		mt, err := mtree.FromTree(sch, base)
		if err != nil {
			return nil, fmt.Errorf("merge: base tree: %w", err)
		}
		if err := mt.Comply(s); err != nil {
			return nil, fmt.Errorf("merge: %s script: %w", side, err)
		}
	}
	sb = remapFreshCollisions(base, sa, sb)
	return merge(sch, base, sa, sb, opt)
}

// merge is the shared core: claim analysis, conflict detection and
// resolution, script construction, and end-to-end verification.
func merge(sch *sig.Schema, base *tree.Node, sa, sb *truechange.Script, opt Options) (*Result, error) {
	ga := computeGroups(sa)
	gb := computeGroups(sb)
	stats := Stats{
		OursEdits:    sa.EditCount(),
		TheirsEdits:  sb.EditCount(),
		OursGroups:   len(ga),
		TheirsGroups: len(gb),
	}

	raw := detectConflicts(ga, indexClaims(gb))

	// Convergence pass: a conflicting pair whose two groups are the same
	// change (up to fresh-URI renaming) is not a disagreement — keep ours'
	// copy, drop theirs'. Deduplicate per pair: two groups can contend
	// several resources at once.
	type pairKey struct{ a, b int }
	seenPair := make(map[pairKey]bool)
	autoResolved := 0
	for _, rc := range raw {
		k := pairKey{rc.a.id, rc.b.id}
		if seenPair[k] {
			continue
		}
		seenPair[k] = true
		if !rc.a.dead && !rc.b.dead && groupsEquivalent(rc.a, rc.b) {
			rc.b.dead = true
			autoResolved++
		}
	}

	// Live conflicts: raw records whose both groups survived convergence.
	// Deduplicate per (pair, kind, resource) — detection can report the
	// same intersection from both directions.
	type confKey struct {
		a, b int
		kind ConflictKind
		uri  uri.URI
		slot truechange.Slot
	}
	seenConf := make(map[confKey]bool)
	var live []rawConflict
	for _, rc := range raw {
		if rc.a.dead || rc.b.dead {
			continue
		}
		k := confKey{a: rc.a.id, b: rc.b.id, kind: rc.kind, uri: rc.uri}
		if rc.slot != nil {
			k.slot = *rc.slot
		}
		if seenConf[k] {
			continue
		}
		seenConf[k] = true
		live = append(live, rc)
	}

	stats.AutoResolved = autoResolved
	stats.Conflicts = len(live)

	var resolved []Conflict
	if len(live) > 0 {
		if opt.Policy == PolicyFail {
			return nil, &ConflictError{Conflicts: conflicts(live, PolicyFail)}
		}
		// Drop the losing side of every live conflict, whole groups at a
		// time — dropping individual edits would leak typing resources.
		for _, rc := range live {
			switch opt.Policy {
			case PolicyOurs:
				rc.b.dead = true
			case PolicyTheirs:
				rc.a.dead = true
			}
		}
		resolved = conflicts(live, opt.Policy)
	}

	merged := buildScript(sa, ga, sb, gb)
	stats.MergedEdits = merged.EditCount()
	stats.DroppedEdits = stats.OursEdits + stats.TheirsEdits - stats.MergedEdits

	// Verification loop. A well-typed union can still be unsound in one
	// way the linear system cannot see: cross-script move cycles, which
	// orphan the moved subtrees. Patch transactionally and check
	// reachability; on a cycle, report or drop the losing side's groups
	// and rebuild. Each iteration kills at least one group, so the loop
	// is bounded by the group count.
	for iter := 0; ; iter++ {
		if iter > len(ga)+len(gb) {
			return nil, fmt.Errorf("merge: internal error: verification did not converge")
		}
		if err := truechange.WellTyped(sch, merged); err != nil {
			return nil, fmt.Errorf("merge: merged script: %w", err)
		}
		mt, err := mtree.FromTree(sch, base)
		if err != nil {
			return nil, fmt.Errorf("merge: base tree: %w", err)
		}
		if err := mt.Patch(merged); err != nil {
			return nil, fmt.Errorf("merge: merged script does not apply: %w", err)
		}
		closedErr := mt.CheckClosed()
		if closedErr == nil {
			break
		}
		cycle := findCycleConflicts(mt, ga, gb)
		if len(cycle) == 0 {
			// Unreachability we cannot attribute to a cross-script pair
			// would mean a single validated input script orphans nodes;
			// refuse rather than return an unsound merge.
			return nil, fmt.Errorf("merge: merged tree is not closed: %w", closedErr)
		}
		stats.Conflicts += len(cycle)
		if opt.Policy == PolicyFail {
			return nil, &ConflictError{Conflicts: append(conflicts(live, PolicyFail), conflicts(cycle, PolicyFail)...)}
		}
		for _, rc := range cycle {
			switch opt.Policy {
			case PolicyOurs:
				rc.b.dead = true
			case PolicyTheirs:
				rc.a.dead = true
			}
		}
		resolved = append(resolved, conflicts(cycle, opt.Policy)...)
		merged = buildScript(sa, ga, sb, gb)
		stats.MergedEdits = merged.EditCount()
		stats.DroppedEdits = stats.OursEdits + stats.TheirsEdits - stats.MergedEdits
	}

	return &Result{Script: merged, Conflicts: resolved, Stats: stats}, nil
}

// conflicts converts raw detection records into the exported form.
func conflicts(raw []rawConflict, res Policy) []Conflict {
	out := make([]Conflict, len(raw))
	for i, rc := range raw {
		out[i] = Conflict{
			Kind:       rc.kind,
			URI:        rc.uri,
			Slot:       rc.slot,
			Ours:       append([]truechange.Edit(nil), rc.a.edits...),
			Theirs:     append([]truechange.Edit(nil), rc.b.edits...),
			Resolution: res,
		}
	}
	return out
}

// buildScript concatenates the surviving edits of both scripts. truediff
// emits scripts with all negative edits (Detach/Unload) before all
// positive ones; when both survivors keep that shape the merged script is
// ordered [negA, negB, posA, posB], which preserves the "negative edits
// free resources before positive edits consume them" discipline across
// the two scripts. Otherwise the scripts are concatenated whole — claims
// are disjoint, so ours' edits cannot invalidate theirs' prefix.
func buildScript(sa *truechange.Script, ga []*group, sb *truechange.Script, gb []*group) *truechange.Script {
	keepA := keptEdits(sa, ga)
	keepB := keptEdits(sb, gb)
	if negBeforePos(keepA) && negBeforePos(keepB) {
		na, pa := splitNegPos(keepA)
		nb, pb := splitNegPos(keepB)
		out := &truechange.Script{Edits: make([]truechange.Edit, 0, len(keepA)+len(keepB))}
		out.Edits = append(out.Edits, na...)
		out.Edits = append(out.Edits, nb...)
		out.Edits = append(out.Edits, pa...)
		out.Edits = append(out.Edits, pb...)
		return out
	}
	return &truechange.Script{Edits: append(append([]truechange.Edit(nil), keepA...), keepB...)}
}

// keptEdits returns the script's edits minus dead groups, in original
// script order.
func keptEdits(s *truechange.Script, groups []*group) []truechange.Edit {
	drop := make(map[int]bool)
	for _, g := range groups {
		if g.dead {
			for _, i := range g.indices {
				drop[i] = true
			}
		}
	}
	if len(drop) == 0 {
		return append([]truechange.Edit(nil), s.Edits...)
	}
	out := make([]truechange.Edit, 0, len(s.Edits)-len(drop))
	for i, e := range s.Edits {
		if !drop[i] {
			out = append(out, e)
		}
	}
	return out
}

func negBeforePos(edits []truechange.Edit) bool {
	seenPos := false
	for _, e := range edits {
		if e.Negative() {
			if seenPos {
				return false
			}
		} else {
			seenPos = true
		}
	}
	return true
}

func splitNegPos(edits []truechange.Edit) (neg, pos []truechange.Edit) {
	for _, e := range edits {
		if e.Negative() {
			neg = append(neg, e)
		} else {
			pos = append(pos, e)
		}
	}
	return neg, pos
}

// findCycleConflicts inspects a patched mtree that failed its closure
// check for nodes unreachable from the root — the signature of a
// cross-script move cycle — and pairs the orphaned attaching groups of
// ours with those of theirs.
func findCycleConflicts(mt *mtree.MTree, ga, gb []*group) []rawConflict {
	reach := make(map[uri.URI]bool)
	var walk func(n *mtree.MNode)
	walk = func(n *mtree.MNode) {
		if n == nil || reach[n.URI] {
			return
		}
		reach[n.URI] = true
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(mt.Root())

	// A group participates in the cycle if one of its surviving attaches
	// targets an unreachable parent.
	orphaned := func(groups []*group) []*group {
		var out []*group
		for _, g := range groups {
			if g.dead {
				continue
			}
			for _, e := range g.edits {
				if at, ok := e.(truechange.Attach); ok && !reach[at.Parent.URI] {
					out = append(out, g)
					break
				}
			}
		}
		return out
	}
	oa, ob := orphaned(ga), orphaned(gb)
	if len(oa) == 0 || len(ob) == 0 {
		return nil // not attributable to a cross-script pair
	}
	var out []rawConflict
	for _, a := range oa {
		for _, b := range ob {
			u := uri.Root
			for _, e := range a.edits {
				if at, ok := e.(truechange.Attach); ok && !reach[at.Parent.URI] {
					u = at.Parent.URI
					break
				}
			}
			out = append(out, rawConflict{kind: ConflictCycle, uri: u, a: a, b: b})
		}
	}
	return out
}

// Apply patches mt with the merged script, then calls accept (if non-nil)
// to validate the outcome; if accept rejects, the merge is rolled back
// exactly by patching the inverse script, and the rejection error is
// returned wrapped. A nil accept commits unconditionally.
func Apply(mt *mtree.MTree, res *Result, accept func(*mtree.MTree) error) error {
	if res == nil || res.Script == nil {
		return fmt.Errorf("merge: nil merge result")
	}
	if err := mt.Patch(res.Script); err != nil {
		return fmt.Errorf("merge: apply: %w", err)
	}
	if accept == nil {
		return nil
	}
	if err := accept(mt); err != nil {
		if rbErr := mt.Patch(truechange.Invert(res.Script)); rbErr != nil {
			return fmt.Errorf("merge: rollback after rejection failed: %v (rejection: %w)", rbErr, err)
		}
		return fmt.Errorf("merge: rejected and rolled back: %w", err)
	}
	return nil
}

// sortConflicts orders conflicts deterministically for display.
func sortConflicts(cs []Conflict) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Kind != cs[j].Kind {
			return cs[i].Kind < cs[j].Kind
		}
		return cs[i].URI < cs[j].URI
	})
}
