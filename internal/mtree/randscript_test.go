package mtree

import (
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// TestLemma38RandomEdits validates Lemma 3.8 (type-safe edits) on randomly
// generated well-typed edit sequences, independent of the truediff
// algorithm: starting from a closed tree, apply hundreds of random valid
// detach/attach/load/unload/update edits; after every single edit, the
// open tree must be well-typed relative to the typing state the checker
// derived (Σ, S, R ⊢ t).
func TestLemma38RandomEdits(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runRandomEdits(t, seed, 150)
	}
}

type randEditor struct {
	t     *testing.T
	rng   *rand.Rand
	sch   *sig.Schema
	mt    *MTree
	st    *truechange.State
	alloc *uri.Allocator
}

func runRandomEdits(t *testing.T, seed int64, steps int) {
	t.Helper()
	g := exp.NewGen(seed)
	tr := g.Tree(25)
	mt, err := FromTree(g.Schema(), tr)
	if err != nil {
		t.Fatal(err)
	}
	e := &randEditor{
		t:     t,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		sch:   g.Schema(),
		mt:    mt,
		st:    truechange.ClosedState(),
		alloc: g.Alloc(),
	}
	for step := 0; step < steps; step++ {
		edit := e.randomEdit()
		if edit == nil {
			continue
		}
		if err := truechange.CheckEdit(e.sch, edit, e.st); err != nil {
			t.Fatalf("seed %d step %d: constructed edit rejected: %v\nedit: %s", seed, step, err, edit)
		}
		if err := e.mt.ProcessEdit(edit); err != nil {
			t.Fatalf("seed %d step %d: semantics failed on well-typed edit: %v\nedit: %s", seed, step, err, edit)
		}
		if err := e.mt.CheckTree(e.st); err != nil {
			t.Fatalf("seed %d step %d: open tree ill-typed after %s: %v", seed, step, edit, err)
		}
	}
}

// attachedEdges enumerates (parent, link, kid) triples with a non-nil kid.
func (e *randEditor) attachedEdges() []truechange.Detach {
	var out []truechange.Detach
	for _, n := range e.allNodes() {
		for i, kid := range n.Kids {
			if kid != nil {
				out = append(out, truechange.Detach{
					Node:   truechange.NodeRef{Tag: kid.Tag, URI: kid.URI},
					Link:   e.sch.Lookup(n.Tag).Kids[i].Link,
					Parent: truechange.NodeRef{Tag: n.Tag, URI: n.URI},
				})
			}
		}
	}
	return out
}

func (e *randEditor) allNodes() []*MNode {
	var out []*MNode
	for u := uri.URI(0); u <= e.alloc.Peek(); u++ {
		if n := e.mt.Lookup(u); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// inSubtree reports whether target occurs in the subtree rooted at root.
func inSubtree(root *MNode, target uri.URI) bool {
	if root == nil {
		return false
	}
	if root.URI == target {
		return true
	}
	for _, k := range root.Kids {
		if inSubtree(k, target) {
			return true
		}
	}
	return false
}

func (e *randEditor) randomEdit() truechange.Edit {
	// Try edit kinds in a random order until one is applicable.
	kinds := e.rng.Perm(5)
	for _, kind := range kinds {
		switch kind {
		case 0: // detach
			edges := e.attachedEdges()
			if len(edges) == 0 {
				continue
			}
			return edges[e.rng.Intn(len(edges))]

		case 1: // attach a root into a compatible empty slot (no cycles)
			roots := e.rootURIs()
			if len(roots) == 0 || len(e.st.Slots) == 0 {
				continue
			}
			for _, r := range roots {
				rootNode := e.mt.Lookup(r)
				for slot := range e.st.Slots {
					if inSubtree(rootNode, slot.URI) {
						continue // attaching into its own subtree would cycle
					}
					parent := e.mt.Lookup(slot.URI)
					if parent == nil {
						continue
					}
					return truechange.Attach{
						Node:   truechange.NodeRef{Tag: rootNode.Tag, URI: r},
						Link:   slot.Link,
						Parent: truechange.NodeRef{Tag: parent.Tag, URI: slot.URI},
					}
				}
			}

		case 2: // load a new node consuming 0..2 roots
			tag, kids, lits, ok := e.loadArgs()
			if !ok {
				continue
			}
			return truechange.Load{
				Node: truechange.NodeRef{Tag: tag, URI: e.alloc.Fresh()},
				Kids: kids,
				Lits: lits,
			}

		case 3: // unload a root, releasing its kids
			roots := e.rootURIs()
			for _, r := range roots {
				n := e.mt.Lookup(r)
				ok := true
				var kids []truechange.KidArg
				g := e.sch.Lookup(n.Tag)
				for i, spec := range g.Kids {
					kid := n.Kids[i]
					if kid == nil {
						ok = false // unload requires a full node (no holes)
						break
					}
					kids = append(kids, truechange.KidArg{Link: spec.Link, URI: kid.URI})
				}
				if !ok {
					continue
				}
				var lits []truechange.LitArg
				for i, spec := range g.Lits {
					lits = append(lits, truechange.LitArg{Link: spec.Link, Value: n.Lits[i]})
				}
				return truechange.Unload{
					Node: truechange.NodeRef{Tag: n.Tag, URI: r},
					Kids: kids,
					Lits: lits,
				}
			}

		case 4: // update literals of any node that has some
			nodes := e.allNodes()
			e.rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			for _, n := range nodes {
				g := e.sch.Lookup(n.Tag)
				if g == nil || len(g.Lits) == 0 {
					continue
				}
				var old, now []truechange.LitArg
				for i, spec := range g.Lits {
					old = append(old, truechange.LitArg{Link: spec.Link, Value: n.Lits[i]})
					var v any
					if spec.Type == sig.IntLit {
						v = int64(e.rng.Intn(1000))
					} else {
						v = "r" + string(rune('a'+e.rng.Intn(26)))
					}
					now = append(now, truechange.LitArg{Link: spec.Link, Value: v})
				}
				return truechange.Update{
					Node: truechange.NodeRef{Tag: n.Tag, URI: n.URI},
					Old:  old,
					New:  now,
				}
			}
		}
	}
	return nil
}

// rootURIs returns the current unattached roots, excluding the pre-defined
// root node itself (which can be neither attached nor unloaded).
func (e *randEditor) rootURIs() []uri.URI {
	var out []uri.URI
	for r := range e.st.Roots {
		if r != uri.Root {
			out = append(out, r)
		}
	}
	e.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// loadArgs picks a random constructor and fills its kid slots with distinct
// currently detached roots, failing if not enough are available.
func (e *randEditor) loadArgs() (sig.Tag, []truechange.KidArg, []truechange.LitArg, bool) {
	tags := []sig.Tag{exp.Num, exp.Var, exp.Add, exp.Sub, exp.Mul, exp.Call, exp.Let}
	tag := tags[e.rng.Intn(len(tags))]
	g := e.sch.Lookup(tag)
	roots := e.rootURIs()
	if len(roots) < len(g.Kids) {
		return "", nil, nil, false
	}
	var kids []truechange.KidArg
	for i, spec := range g.Kids {
		kids = append(kids, truechange.KidArg{Link: spec.Link, URI: roots[i]})
	}
	var lits []truechange.LitArg
	for _, spec := range g.Lits {
		var v any
		if spec.Type == sig.IntLit {
			v = int64(e.rng.Intn(100))
		} else {
			v = "v" + string(rune('a'+e.rng.Intn(26)))
		}
		lits = append(lits, truechange.LitArg{Link: spec.Link, Value: v})
	}
	return tag, kids, lits, true
}
