package proptest

import (
	"testing"

	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// shareFrom rebuilds target so that each maximal subtree equal to a source
// subtree not yet shared is that source subtree, as a reparse shares the
// statements it did not change. taken marks every node of a shared source
// subtree and every ancestor of one, so no node enters the result twice.
// target must share no node with source; the nodes above a shared subtree
// are rebuilt with tree.Rebuilt, with URIs from alloc.
type shareFrom struct {
	alloc  *uri.Allocator
	byKey  map[tree.ExactKey][]*tree.Node
	parent map[*tree.Node]*tree.Node
	taken  map[*tree.Node]bool
	shared int // target nodes now in a shared subtree
}

func newShareFrom(source *tree.Node, alloc *uri.Allocator) *shareFrom {
	s := &shareFrom{
		alloc:  alloc,
		byKey:  map[tree.ExactKey][]*tree.Node{},
		parent: map[*tree.Node]*tree.Node{},
		taken:  map[*tree.Node]bool{},
	}
	tree.Walk(source, func(n *tree.Node) {
		s.byKey[n.ExactHash()] = append(s.byKey[n.ExactHash()], n)
		for _, k := range n.Kids {
			s.parent[k] = n
		}
	})
	return s
}

func (s *shareFrom) rebuild(t *tree.Node) *tree.Node {
	for _, c := range s.byKey[t.ExactHash()] {
		if s.taken[c] || !tree.Equal(c, t) {
			continue
		}
		tree.Walk(c, func(n *tree.Node) { s.taken[n] = true })
		for a := s.parent[c]; a != nil && !s.taken[a]; a = s.parent[a] {
			s.taken[a] = true
		}
		s.shared += c.Size()
		return c
	}
	var kids []*tree.Node
	for i, k := range t.Kids {
		if r := s.rebuild(k); r != k {
			if kids == nil {
				kids = append([]*tree.Node(nil), t.Kids...)
			}
			kids[i] = r
		}
	}
	if kids == nil {
		return t
	}
	return tree.Rebuilt(t, s.alloc, s.alloc.Fresh(), kids)
}

// TestSharedTrees checks that truediff treats a node that occurs in both
// trees like any other equal pair. For every generator's pairs, it diffs
// the source against a copy of the target that shares nothing with it, and
// against that copy rebuilt to share every subtree it can with the source.
// Both diffs use a nil allocator, so the two scripts must agree edit for
// edit and the patched trees node by node, URIs included.
func TestSharedTrees(t *testing.T) {
	cfg := runConfig()
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			t.Parallel()
			d := truediff.New(gen.Schema())
			run := NewRun(gen, cfg)
			var shared, total int
			for i := 0; i < cfg.Iters; i++ {
				p := run.Next()
				disjoint := tree.CloneKeepDigests(p.Target, gen.Alloc())
				sh := newShareFrom(p.Source, gen.Alloc())
				target := sh.rebuild(disjoint)
				seen := map[*tree.Node]bool{}
				tree.Walk(target, func(n *tree.Node) {
					if seen[n] {
						t.Fatalf("pair %d (%s): the shared target holds %s%s twice", i, p.Desc, n.Tag, n.URI)
					}
					seen[n] = true
				})
				shared += sh.shared
				total += target.Size()

				want, err := d.Diff(p.Source, disjoint, nil)
				if err != nil {
					t.Fatalf("pair %d (%s): diff against the disjoint target: %v", i, p.Desc, err)
				}
				got, err := d.Diff(p.Source, target, nil)
				if err != nil {
					t.Fatalf("pair %d (%s): diff against the shared target: %v", i, p.Desc, err)
				}
				if !truechange.EqualEdits(got.Script.Edits, want.Script.Edits) {
					t.Fatalf("pair %d (%s): sharing %d of %d target nodes changed the script:\nshared   %v\ndisjoint %v",
						i, p.Desc, sh.shared, target.Size(), got.Script.Edits, want.Script.Edits)
				}
				if msg := tree.Mismatch(got.Patched, want.Patched); msg != "" {
					t.Fatalf("pair %d (%s): patched trees differ: %s", i, p.Desc, msg)
				}
			}
			t.Logf("%d pairs, %d of %d target nodes (%.0f%%) shared with the source",
				cfg.Iters, shared, total, 100*float64(shared)/float64(max(total, 1)))
		})
	}
}
