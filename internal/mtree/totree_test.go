package mtree

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// rebuildAll is the reference ToTree is held to: it converts the attached
// tree by building every node afresh through tree.NewWithURI, hashed with
// the source's digest kind, sharing nothing.
func rebuildAll(mt *MTree, alloc *uri.Allocator) (*tree.Node, error) {
	var rebuild func(n *MNode) (*tree.Node, error)
	rebuild = func(n *MNode) (*tree.Node, error) {
		kids := make([]*tree.Node, len(n.Kids))
		for i, k := range n.Kids {
			if k == nil {
				return nil, fmt.Errorf("node %s has an empty slot", n.URI)
			}
			t, err := rebuild(k)
			if err != nil {
				return nil, err
			}
			kids[i] = t
		}
		return tree.NewWithURI(mt.sch, alloc, n.URI, n.Tag, kids, n.Lits, mt.kind)
	}
	if mt.Top() == nil {
		return nil, fmt.Errorf("tree is empty")
	}
	return rebuild(mt.Top())
}

// leafPath returns the root-to-leaf path of t's first leaf, in preorder,
// that carries a literal.
func leafPath(t *tree.Node) []*tree.Node {
	if len(t.Kids) == 0 {
		if len(t.Lits) > 0 {
			return []*tree.Node{t}
		}
		return nil
	}
	for _, k := range t.Kids {
		if p := leafPath(k); p != nil {
			return append([]*tree.Node{t}, p...)
		}
	}
	return nil
}

// changed returns a literal value of v's type that differs from v.
func changed(v any) any {
	switch x := v.(type) {
	case int64:
		return x + 1
	case string:
		return x + "'"
	}
	panic(fmt.Sprintf("unexpected literal %#v", v))
}

// TestToTreeSharesUntouchedSubtrees: after one literal Update on a leaf,
// ToTree rebuilds exactly the root-to-leaf path and returns every other
// node as the source's own node, by pointer; the result equals the full
// rebuild node by node. A patch that fails and rolls the Update back
// leaves nothing to rebuild at all.
func TestToTreeSharesUntouchedSubtrees(t *testing.T) {
	for _, kind := range []tree.HashKind{tree.SHA256, tree.FNV64} {
		g := exp.NewGen(5)
		src := tree.Clone(g.Tree(200), uri.NewAllocator(), kind)
		path := leafPath(src)
		if path == nil {
			t.Fatal("generated tree has no leaf with a literal")
		}
		leaf := path[len(path)-1]
		link := g.Schema().Lookup(leaf.Tag).Lits[0].Link
		update := truechange.Update{
			Node: truechange.NodeRef{Tag: leaf.Tag, URI: leaf.URI},
			Old:  []truechange.LitArg{{Link: link, Value: leaf.Lits[0]}},
			New:  []truechange.LitArg{{Link: link, Value: changed(leaf.Lits[0])}},
		}

		mt, err := FromTree(g.Schema(), src)
		if err != nil {
			t.Fatal(err)
		}
		bad := truechange.Unload{Node: truechange.NodeRef{Tag: exp.Num, URI: 1 << 40}}
		if err := mt.Patch(&truechange.Script{Edits: []truechange.Edit{update, bad}}); err == nil {
			t.Fatal("corrupted script patched successfully")
		}
		if got, err := mt.ToTree(uri.NewAllocator()); err != nil || got != src {
			t.Fatalf("%v: ToTree after a rolled-back update = %p, %v; want the source %p", kind, got, err, src)
		}

		if err := mt.Patch(&truechange.Script{Edits: []truechange.Edit{update}}); err != nil {
			t.Fatal(err)
		}
		got, err := mt.ToTree(uri.NewAllocator())
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuildAll(mt, uri.NewAllocator())
		if err != nil {
			t.Fatal(err)
		}
		if msg := tree.Mismatch(got, want); msg != "" {
			t.Fatalf("%v: ToTree differs from the full rebuild: %s", kind, msg)
		}

		onPath := make(map[*tree.Node]bool, len(path))
		for _, n := range path {
			onPath[n] = true
		}
		var shared, rebuilt int
		var walk func(got, src *tree.Node)
		walk = func(got, src *tree.Node) {
			if !onPath[src] {
				if got != src {
					t.Errorf("%v: untouched node %s%s was rebuilt", kind, src.Tag, src.URI)
				}
				shared++
				return
			}
			if got == src {
				t.Errorf("%v: changed node %s%s was returned as the source's", kind, src.Tag, src.URI)
			}
			rebuilt++
			for i := range src.Kids {
				walk(got.Kids[i], src.Kids[i])
			}
		}
		walk(got, src)
		if rebuilt != len(path) || shared == 0 {
			t.Errorf("%v: rebuilt %d nodes and shared %d subtrees, want %d rebuilt", kind, rebuilt, shared, len(path))
		}
	}
}

// TestFromTreeAllocations guards FromTree's one-pass conversion: the nodes
// and kid slots come from two arenas and the literals are shared, so the
// allocations do not grow with the tree.
func TestFromTreeAllocations(t *testing.T) {
	g := exp.NewGen(3)
	tr := g.Tree(600)
	if tr.Size() < 500 {
		t.Fatalf("generated tree has %d nodes, want at least 500", tr.Size())
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := FromTree(g.Schema(), tr); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := allocs / float64(tr.Size()); perNode > 0.1 {
		t.Errorf("FromTree allocates %.3f times per node (%.0f for %d nodes), want at most 0.1",
			perNode, allocs, tr.Size())
	}
}

// TestComplyLeavesReceiverLiterals: Comply simulates the script on a clone
// that shares the receiver's literal slices, so an Update it simulates
// must not write through to the receiver or to the source tree.
func TestComplyLeavesReceiverLiterals(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	// tr = Add#5(Sub#3(Var#1(a), Var#2(b)), Num#4(7))
	mt, err := FromTree(sch, tr)
	if err != nil {
		t.Fatal(err)
	}
	before := dump(mt)
	script := &truechange.Script{Edits: []truechange.Edit{
		truechange.Update{Node: nref("Var", 1),
			Old: []truechange.LitArg{{Link: "name", Value: "a"}},
			New: []truechange.LitArg{{Link: "name", Value: "q"}}},
		truechange.Update{Node: nref("Num", 4),
			Old: []truechange.LitArg{{Link: "n", Value: int64(7)}},
			New: []truechange.LitArg{{Link: "n", Value: int64(8)}}},
	}}
	if err := mt.Comply(script); err != nil {
		t.Fatal(err)
	}
	if after := dump(mt); after != before {
		t.Errorf("Comply changed the receiver:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if v := tr.Kids[0].Kids[0].Lits[0]; v != "a" {
		t.Errorf("Comply changed the source tree's literal to %#v", v)
	}
	if v := tr.Kids[1].Lits[0]; v != int64(7) {
		t.Errorf("Comply changed the source tree's literal to %#v", v)
	}
}

// TestCycleIsNoTree: a script that complies but is ill-typed can attach a
// node inside its own subtree, or the pre-defined root under itself.
// CheckClosed and ToTree report the cycle instead of recursing forever.
func TestCycleIsNoTree(t *testing.T) {
	sch := expSchema()
	tr, _ := buildTree(t, sch)
	// tr = Add#5(Sub#3(Var#1(a), Var#2(b)), Num#4(7))
	for name, edits := range map[string][]truechange.Edit{
		"root under itself": {
			truechange.Detach{Node: nref("Add", 5), Link: sig.RootLink, Parent: truechange.RootRef},
			truechange.Attach{Node: truechange.RootRef, Link: sig.RootLink, Parent: truechange.RootRef},
		},
		"top under its grandchild's parent": {
			truechange.Detach{Node: nref("Var", 1), Link: "e1", Parent: nref("Sub", 3)},
			truechange.Attach{Node: nref("Add", 5), Link: "e1", Parent: nref("Sub", 3)},
		},
	} {
		mt, err := FromTree(sch, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(&truechange.Script{Edits: edits}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := mt.CheckClosed(); err == nil {
			t.Errorf("%s: CheckClosed accepted a cycle", name)
		}
		if _, err := mt.ToTree(uri.NewAllocator()); err == nil {
			t.Errorf("%s: ToTree converted a cycle", name)
		}
	}
}
