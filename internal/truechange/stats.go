package truechange

import (
	"fmt"
	"strings"

	"repro/internal/uri"
)

// Stats is a per-kind breakdown of an edit script, used by tooling to
// summarize what a patch does.
type Stats struct {
	Detaches int
	Attaches int
	Loads    int
	Unloads  int
	Updates  int
	// Moves counts detached subtrees that are reused rather than deleted:
	// either reattached directly (a detach/attach pair) or consumed as the
	// child of a freshly loaded node. Both express subtree movement.
	Moves int
	// Compound is the paper's conciseness metric (Script.EditCount).
	Compound int
}

// ComputeStats analyzes the script in one pass. The set of movable roots
// it keeps is keyed by URI, so a script of a few edits allocates nothing.
func ComputeStats(s *Script) Stats {
	st := Stats{Compound: s.EditCount()}
	detached := make(map[uri.URI]bool)
	for _, e := range s.Edits {
		switch ed := e.(type) {
		case Detach:
			st.Detaches++
			detached[ed.Node.URI] = true
		case Attach:
			st.Attaches++
			if detached[ed.Node.URI] {
				st.Moves++
			}
		case Load:
			st.Loads++
			for _, k := range ed.Kids {
				if detached[k.URI] {
					st.Moves++
					delete(detached, k.URI)
				}
			}
		case Unload:
			st.Unloads++
			delete(detached, ed.Node.URI)
			// Children released by the unload become movable roots too.
			for _, k := range ed.Kids {
				detached[k.URI] = true
			}
		case Update:
			st.Updates++
		}
	}
	return st
}

// String renders the breakdown on one line.
func (st Stats) String() string {
	parts := []string{}
	add := func(n int, name string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, name))
		}
	}
	add(st.Moves, "moves")
	add(st.Updates, "updates")
	add(st.Loads, "loads")
	add(st.Unloads, "unloads")
	add(st.Detaches, "detaches")
	add(st.Attaches, "attaches")
	if len(parts) == 0 {
		return "empty script"
	}
	return strings.Join(parts, ", ") + fmt.Sprintf(" (%d compound edits)", st.Compound)
}
