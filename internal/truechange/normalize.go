package truechange

import (
	"slices"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Normalize removes redundancy from an edit script without changing its
// meaning, using three conservative rewrites:
//
//  1. update fusion — consecutive updates of one node collapse into the
//     last one (carrying the earliest old values); a fused update whose
//     old and new literals agree is dropped entirely;
//  2. detach/attach cancellation — a detach whose subtree is later
//     reattached to the very same slot, with no intervening edit touching
//     that subtree or slot, is dropped together with its attach;
//  3. load/unload cancellation — a loaded node that is later unloaded,
//     with no intervening edit touching it or its consumed kids, never
//     needed to exist; both edits are dropped.
//
// Normalization matters when scripts are composed: an incremental pipeline
// that concatenates per-keystroke diffs (Compose) accumulates edits that
// undo each other, and the composed script would otherwise grow without
// bound. Normalizing a well-typed script yields a well-typed script with
// the same standard semantics; the tests check both properties on random
// compositions.
func Normalize(s *Script) *Script {
	edits := append([]Edit(nil), s.Edits...)
	edits = fuseUpdates(edits)
	edits = cancelDetachAttach(edits)
	edits = cancelLoadUnload(edits)
	return &Script{Edits: edits}
}

// Compose concatenates consecutive scripts (the second must have been
// computed against the tree the first produces) and normalizes the result.
func Compose(scripts ...*Script) *Script {
	return Normalize(Concat(scripts...))
}

// fuseUpdates collapses multiple updates of one node into the last
// occurrence and drops no-op updates. URIs are never reused (compliance
// forbids reloading an unloaded URI), so all updates of one URI address
// the same node.
func fuseUpdates(edits []Edit) []Edit {
	// firstOld remembers the oldest literal values per node.
	firstOld := make(map[uri.URI][]LitArg)
	lastIdx := make(map[uri.URI]int)
	for i, e := range edits {
		up, ok := e.(Update)
		if !ok {
			continue
		}
		if _, seen := firstOld[up.Node.URI]; !seen {
			firstOld[up.Node.URI] = up.Old
		}
		lastIdx[up.Node.URI] = i
	}
	out := make([]Edit, 0, len(edits))
	for i, e := range edits {
		up, ok := e.(Update)
		if !ok {
			out = append(out, e)
			continue
		}
		if lastIdx[up.Node.URI] != i {
			continue // superseded by a later update
		}
		fused := Update{Node: up.Node, Old: firstOld[up.Node.URI], New: up.New}
		if litArgsEqual(fused.Old, fused.New) {
			continue // net no-op
		}
		out = append(out, fused)
	}
	return out
}

// EqualEdits reports whether a and b hold the same edits in the same
// order, comparing literals by bit pattern (tree.LitEqual): NaN equals
// itself and −0 differs from +0.
func EqualEdits(a, b []Edit) bool {
	return slices.EqualFunc(a, b, func(x, y Edit) bool {
		switch x := x.(type) {
		case Load:
			y, ok := y.(Load)
			return ok && x.Node == y.Node && slices.Equal(x.Kids, y.Kids) && litArgsEqual(x.Lits, y.Lits)
		case Unload:
			y, ok := y.(Unload)
			return ok && x.Node == y.Node && slices.Equal(x.Kids, y.Kids) && litArgsEqual(x.Lits, y.Lits)
		case Update:
			y, ok := y.(Update)
			return ok && x.Node == y.Node && litArgsEqual(x.Old, y.Old) && litArgsEqual(x.New, y.New)
		default: // Detach and Attach hold comparable fields only
			return x == y
		}
	})
}

func litArgsEqual(a, b []LitArg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Link != b[i].Link || !tree.LitEqual(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// mentionsNode reports whether the edit refers to the URI in any role.
func mentionsNode(e Edit, u uri.URI) bool {
	switch ed := e.(type) {
	case Detach:
		return ed.Node.URI == u || ed.Parent.URI == u
	case Attach:
		return ed.Node.URI == u || ed.Parent.URI == u
	case Load:
		if ed.Node.URI == u {
			return true
		}
		for _, k := range ed.Kids {
			if k.URI == u {
				return true
			}
		}
		return false
	case Unload:
		if ed.Node.URI == u {
			return true
		}
		for _, k := range ed.Kids {
			if k.URI == u {
				return true
			}
		}
		return false
	case Update:
		return ed.Node.URI == u
	default:
		return true // unknown edit kinds block all rewrites
	}
}

// mentionsSlot reports whether the edit touches the slot parent.link.
func mentionsSlot(e Edit, parent uri.URI, link sig.Link) bool {
	switch ed := e.(type) {
	case Detach:
		return ed.Parent.URI == parent && ed.Link == link
	case Attach:
		return ed.Parent.URI == parent && ed.Link == link
	default:
		return false
	}
}

// cancelDetachAttach drops detach/attach pairs that return a subtree to
// the slot it came from, when nothing in between touches the subtree root
// or the slot.
func cancelDetachAttach(edits []Edit) []Edit {
	drop := make([]bool, len(edits))
	for i, e := range edits {
		det, ok := e.(Detach)
		if !ok || drop[i] {
			continue
		}
		for j := i + 1; j < len(edits); j++ {
			if drop[j] {
				continue
			}
			if att, ok := edits[j].(Attach); ok &&
				att.Node.URI == det.Node.URI && att.Parent.URI == det.Parent.URI && att.Link == det.Link {
				drop[i], drop[j] = true, true
				break
			}
			if mentionsNode(edits[j], det.Node.URI) || mentionsSlot(edits[j], det.Parent.URI, det.Link) {
				break
			}
		}
	}
	return compact(edits, drop)
}

// cancelLoadUnload drops load/unload pairs of one URI when nothing in
// between touches the node or the kids it consumed; the kids simply stay
// unattached roots across the gap.
func cancelLoadUnload(edits []Edit) []Edit {
	drop := make([]bool, len(edits))
	for i, e := range edits {
		ld, ok := e.(Load)
		if !ok || drop[i] {
			continue
		}
		for j := i + 1; j < len(edits); j++ {
			if drop[j] {
				continue
			}
			if ul, ok := edits[j].(Unload); ok && ul.Node.URI == ld.Node.URI {
				drop[i], drop[j] = true, true
				break
			}
			touched := mentionsNode(edits[j], ld.Node.URI)
			for _, k := range ld.Kids {
				touched = touched || mentionsNode(edits[j], k.URI)
			}
			if touched {
				break
			}
		}
	}
	return compact(edits, drop)
}

func compact(edits []Edit, drop []bool) []Edit {
	out := edits[:0]
	for i, e := range edits {
		if !drop[i] {
			out = append(out, e)
		}
	}
	return out
}
