package truediff

import (
	"container/heap"
	"testing"

	"repro/internal/exp"
	"repro/internal/tree"
)

func TestShareRegisterAndTake(t *testing.T) {
	b := exp.NewBuilder()
	n1 := b.MustN(exp.Num, 1)
	n2 := b.MustN(exp.Num, 2)
	n3 := b.MustN(exp.Num, 1)

	s := newShare()
	s.registerAvailable(n1, n1.LitHash())
	s.registerAvailable(n2, n2.LitHash())
	s.registerAvailable(n3, n3.LitHash())
	s.registerAvailable(n1, n1.LitHash()) // duplicate registration is a no-op

	// Preferred lookup finds the exact-literal candidate.
	if got, _ := s.takePreferred(n2.LitHash()); got != n2 {
		t.Errorf("takePreferred = %v, want n2", got)
	}
	// n2 is consumed: a second preferred take for its key fails.
	if got, _ := s.takePreferred(n2.LitHash()); got != nil {
		t.Errorf("consumed candidate returned again: %v", got)
	}
	// takeAny pops in registration order, skipping consumed entries.
	if got, _ := s.takeAny(); got != n1 {
		t.Errorf("takeAny = %v, want n1", got)
	}
	if got, _ := s.takeAny(); got != n3 {
		t.Errorf("takeAny = %v, want n3", got)
	}
	if got, _ := s.takeAny(); got != nil {
		t.Errorf("exhausted share returned %v", got)
	}
}

func TestShareRemoveAvailable(t *testing.T) {
	b := exp.NewBuilder()
	n1 := b.MustN(exp.Num, 7)
	n2 := b.MustN(exp.Num, 7)
	s := newShare()
	s.registerAvailable(n1, n1.LitHash())
	s.registerAvailable(n2, n2.LitHash())
	s.removeAvailable(n1)
	if got, _ := s.takePreferred(n1.LitHash()); got != n2 {
		t.Errorf("preferred take after removal = %v, want n2", got)
	}
	if got, _ := s.takeAny(); got != nil {
		t.Errorf("take after exhaustion = %v", got)
	}
}

func TestShareReregistration(t *testing.T) {
	// A node removed from a share may be registered again (the undo path
	// of preemptive assignments); lazy deletion must not hide it.
	b := exp.NewBuilder()
	n := b.MustN(exp.Var, "x")
	s := newShare()
	s.registerAvailable(n, n.LitHash())
	s.removeAvailable(n)
	s.registerAvailable(n, n.LitHash())
	if got, _ := s.takeAny(); got != n {
		t.Errorf("re-registered node not available: %v", got)
	}
}

func TestRegistryShareIdentity(t *testing.T) {
	key := func(b byte) tree.ExactKey { return tree.ExactKey{Struct: tree.Digest{b}} }
	r := newRegistry()
	a := r.shareFor(key(1))
	b := r.shareFor(key(1))
	c := r.shareFor(key(2))
	if a != b {
		t.Error("same key must return the same share")
	}
	if a == c {
		t.Error("different keys must return different shares")
	}
	if r.lookup(key(1)) != a || r.lookup(key(3)) != nil {
		t.Error("lookup wrong")
	}
}

func TestNodeHeapOrdering(t *testing.T) {
	g := exp.NewGen(1)
	leaf1 := g.Tree(1)
	leaf2 := g.Tree(1)
	big := g.Tree(40)
	h := &nodeHeap{}
	for _, n := range []*tree.Node{leaf1, big, leaf2} {
		heap.Push(h, n)
	}
	if got := heap.Pop(h).(*tree.Node); got != big {
		t.Error("tallest should pop first")
	}
	second := heap.Pop(h).(*tree.Node)
	third := heap.Pop(h).(*tree.Node)
	if second != leaf1 || third != leaf2 {
		t.Error("equal heights should pop in insertion order")
	}
	if h.Len() != 0 {
		t.Error("heap should be empty")
	}
}
