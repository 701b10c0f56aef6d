package proptest

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
)

// TestExhaustiveSmallPairs runs the oracle on every ordered pair of small
// exp trees: every tree of at most 4 nodes (5 with -proptest.long) whose
// leaves are Num 0, Num 1 and Var x, whose unary node is Call f and whose
// binary nodes are Add, Sub, Mul and Let x. Drawn pairs hold a property
// only for the pairs drawn; this holds it for every pair up to that size,
// including the shapes random draws rarely reach (left and right
// branches, zigzags).
func TestExhaustiveSmallPairs(t *testing.T) {
	maxNodes, wantTrees := 4, 156
	if *flagLong {
		maxNodes, wantTrees = 5, 1239
	}
	// Two enumerations from one builder: no pair shares a node or a URI.
	b := exp.NewBuilder()
	srcs, dsts := smallExpTrees(b, maxNodes), smallExpTrees(b, maxNodes)
	distinct := map[tree.ExactKey]bool{}
	for _, x := range srcs {
		distinct[x.ExactHash()] = true
	}
	if len(srcs) != wantTrees || len(distinct) != wantTrees {
		t.Fatalf("enumerated %d trees (%d distinct), want %d", len(srcs), len(distinct), wantTrees)
	}
	sch := exp.Schema()
	for i, src := range srcs {
		for j, dst := range dsts {
			salt := int64(i*len(dsts) + j)
			if _, err := CheckPair(sch, Pair{Source: src, Target: dst, Iter: int(salt)}, salt); err != nil {
				t.Fatalf("pair %d → %d\nsource: %s\ntarget: %s\n%v",
					i, j, tree.EncodeSExpr(src), tree.EncodeSExpr(dst), err)
			}
		}
	}
	t.Logf("%d trees of at most %d nodes, %d ordered pairs", len(srcs), maxNodes, len(srcs)*len(dsts))
}

// smallExpTrees returns every exp tree of at most maxNodes nodes over the
// constructors TestExhaustiveSmallPairs names, smallest first. Each tree
// is built from fresh nodes drawn from b.
func smallExpTrees(b *tree.Builder, maxNodes int) []*tree.Node {
	// A build makes a new copy of one tree on every call.
	type build func() *tree.Node
	node := func(tag sig.Tag, lit any, kids ...build) build {
		return func() *tree.Node {
			args := make([]any, 0, len(kids)+1)
			for _, k := range kids {
				args = append(args, k())
			}
			if lit != nil {
				args = append(args, lit)
			}
			return b.MustN(tag, args...)
		}
	}
	bySize := make([][]build, maxNodes+1)
	bySize[1] = []build{node(exp.Num, int64(0)), node(exp.Num, int64(1)), node(exp.Var, "x")}
	for n := 2; n <= maxNodes; n++ {
		for _, a := range bySize[n-1] {
			bySize[n] = append(bySize[n], node(exp.Call, "f", a))
		}
		for left := 1; left < n-1; left++ {
			for _, l := range bySize[left] {
				for _, r := range bySize[n-1-left] {
					for _, tag := range []sig.Tag{exp.Add, exp.Sub, exp.Mul} {
						bySize[n] = append(bySize[n], node(tag, nil, l, r))
					}
					bySize[n] = append(bySize[n], node(exp.Let, "x", l, r))
				}
			}
		}
	}
	var trees []*tree.Node
	for _, builds := range bySize {
		for _, bld := range builds {
			trees = append(trees, bld())
		}
	}
	return trees
}
