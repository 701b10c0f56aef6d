package proptest

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
)

// TestExhaustiveSmallPairs runs the oracle on every ordered pair of small
// exp trees: in each row, every tree of at most the row's size whose
// leaves are the row's leaves, whose unary nodes are Call with the row's
// call names and whose binary nodes are Add, Sub, Mul and Let with the
// row's let names. The first row's one Var, Call and Let name leave no
// pair that differs in a string literal; the second row adds Var y, Call
// g and Let y, on smaller trees, so a differ that ignores any of the
// three string literals fails it. Drawn pairs hold a property only for
// the pairs drawn; this holds it for every pair up to that size,
// including the shapes random draws rarely reach (left and right
// branches, zigzags).
func TestExhaustiveSmallPairs(t *testing.T) {
	for _, row := range []struct {
		name                string
		leaves              []leaf
		calls, lets         []string
		maxNodes, wantTrees int
		// The row's size and tree count under -proptest.long.
		longNodes, longTrees int
	}{
		{"vars=x", []leaf{{exp.Num, int64(0)}, {exp.Num, int64(1)}, {exp.Var, "x"}},
			[]string{"f"}, []string{"x"}, 4, 156, 5, 1239},
		{"vars=x,y", []leaf{{exp.Num, int64(0)}, {exp.Num, int64(1)}, {exp.Var, "x"}, {exp.Var, "y"}},
			[]string{"f", "g"}, []string{"x", "y"}, 3, 108, 4, 620},
	} {
		t.Run(row.name, func(t *testing.T) {
			maxNodes, wantTrees := row.maxNodes, row.wantTrees
			if *flagLong {
				maxNodes, wantTrees = row.longNodes, row.longTrees
			}
			// Two enumerations from one builder: no pair shares a node or
			// a URI.
			b := exp.NewBuilder()
			srcs := smallExpTrees(b, row.leaves, row.calls, row.lets, maxNodes)
			dsts := smallExpTrees(b, row.leaves, row.calls, row.lets, maxNodes)
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
		})
	}
}

// leaf is a leaf constructor of the enumeration: a tag and its literal.
type leaf struct {
	tag sig.Tag
	lit any
}

// smallExpTrees returns every exp tree of at most maxNodes nodes over the
// given leaves, Call with each of calls, Let with each of lets, and Add,
// Sub and Mul, smallest first. Each tree is built from fresh nodes drawn
// from b.
func smallExpTrees(b *tree.Builder, leaves []leaf, calls, lets []string, maxNodes int) []*tree.Node {
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
	for _, l := range leaves {
		bySize[1] = append(bySize[1], node(l.tag, l.lit))
	}
	for n := 2; n <= maxNodes; n++ {
		for _, a := range bySize[n-1] {
			for _, f := range calls {
				bySize[n] = append(bySize[n], node(exp.Call, f, a))
			}
		}
		for left := 1; left < n-1; left++ {
			for _, l := range bySize[left] {
				for _, r := range bySize[n-1-left] {
					for _, tag := range []sig.Tag{exp.Add, exp.Sub, exp.Mul} {
						bySize[n] = append(bySize[n], node(tag, nil, l, r))
					}
					for _, x := range lets {
						bySize[n] = append(bySize[n], node(exp.Let, x, l, r))
					}
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
