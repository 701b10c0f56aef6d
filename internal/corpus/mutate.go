package corpus

import (
	"repro/internal/pylang"
	"repro/internal/tree"
)

// EditKind classifies the realistic edit operations commits apply.
type EditKind uint8

// The edit kinds, distributed roughly like small source-code commits.
const (
	EditLiteral     EditKind = iota // tweak a numeric or string literal
	EditRename                      // rename a function, class, or parameter
	EditInsertStmt                  // insert a statement into a suite
	EditDeleteStmt                  // delete a statement from a suite
	EditMoveDef                     // move a top-level definition elsewhere
	EditWrapIf                      // wrap a statement in a conditional
	EditAddParam                    // append a defaulted parameter
	EditSwapStmts                   // swap two adjacent statements
	EditReplaceExpr                 // replace an expression subtree
	editKinds
)

func (k EditKind) String() string {
	switch k {
	case EditLiteral:
		return "literal"
	case EditRename:
		return "rename"
	case EditInsertStmt:
		return "insert-stmt"
	case EditDeleteStmt:
		return "delete-stmt"
	case EditMoveDef:
		return "move-def"
	case EditWrapIf:
		return "wrap-if"
	case EditAddParam:
		return "add-param"
	case EditSwapStmts:
		return "swap-stmts"
	case EditReplaceExpr:
		return "replace-expr"
	default:
		return "unknown"
	}
}

// indexWhere returns the preorder indices of nodes satisfying pred.
func indexWhere(t *tree.Node, pred func(*tree.Node) bool) []int {
	var out []int
	idx := 0
	tree.Walk(t, func(n *tree.Node) {
		if pred(n) {
			out = append(out, idx)
		}
		idx++
	})
	return out
}

// rebuildAt returns t with the subtree at preorder index target replaced
// by repl(subtree). It rebuilds only the nodes on the path from the root to
// the target, with fresh URIs, and shares every other subtree with t, as a
// reparse shares the statements it did not change.
func (g *gen) rebuildAt(t *tree.Node, target int, repl func(*tree.Node) *tree.Node) *tree.Node {
	if target == 0 {
		return repl(t)
	}
	kids := append([]*tree.Node(nil), t.Kids...)
	at := 1 // the preorder index of the next kid
	for i, k := range t.Kids {
		if target < at+k.Size() {
			kids[i] = g.rebuildAt(k, target-at, repl)
			break
		}
		at += k.Size()
	}
	out, err := tree.New(g.f.Schema(), g.f.Alloc(), t.Tag, kids, append([]any(nil), t.Lits...))
	if err != nil {
		panic(err)
	}
	return out
}

// isStmtSpine reports spine nodes of statement lists (insertion points).
func isStmtSpine(n *tree.Node) bool {
	return n.Tag == pylang.TagStmtCons || n.Tag == pylang.TagStmtNil
}

func hasLits(n *tree.Node) bool { return len(n.Lits) > 0 }

// mutate applies one random edit of a random kind to the module, returning
// the mutated copy and the kind applied. If the chosen kind has no
// applicable site, another kind is tried; a module always admits at least
// a literal insertion, so mutate always succeeds.
func (g *gen) mutate(mod *tree.Node) (*tree.Node, EditKind) {
	order := g.rng.Perm(int(editKinds))
	for _, k := range order {
		kind := EditKind(k)
		if out := g.applyEdit(mod, kind); out != nil {
			return out, kind
		}
	}
	// Fallback: insert a pass statement at the top of the module.
	f := g.f
	return g.rebuildAt(mod, 1, func(spine *tree.Node) *tree.Node {
		return f.StmtList(append([]*tree.Node{f.Pass()}, pylang.ListElems(spine)...)...)
	}), EditInsertStmt
}

// applyEdit attempts one edit of the given kind; nil if inapplicable.
func (g *gen) applyEdit(mod *tree.Node, kind EditKind) *tree.Node {
	f := g.f
	pickSite := func(sites []int) (int, bool) {
		if len(sites) == 0 {
			return 0, false
		}
		return sites[g.rng.Intn(len(sites))], true
	}

	switch kind {
	case EditLiteral:
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			return n.Tag == pylang.TagNumInt || n.Tag == pylang.TagNumFloat || n.Tag == pylang.TagStr
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(n *tree.Node) *tree.Node {
			switch n.Tag {
			case pylang.TagNumInt:
				return f.Int(n.Lits[0].(int64) + int64(g.rng.Intn(9)+1))
			case pylang.TagNumFloat:
				return f.Float(n.Lits[0].(float64) * 1.5)
			default:
				return f.Str(g.pick(strValues))
			}
		})

	case EditRename:
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			return (n.Tag == pylang.TagFuncDef || n.Tag == pylang.TagClassDef || n.Tag == pylang.TagParam) && hasLits(n)
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(n *tree.Node) *tree.Node {
			lits := append([]any(nil), n.Lits...)
			lits[0] = lits[0].(string) + "_v2"
			out, err := tree.New(f.Schema(), f.Alloc(), n.Tag, append([]*tree.Node(nil), n.Kids...), lits)
			if err != nil {
				panic(err)
			}
			return out
		})

	case EditInsertStmt:
		site, ok := pickSite(indexWhere(mod, isStmtSpine))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(spine *tree.Node) *tree.Node {
			stmts := append([]*tree.Node{g.stmt(1)}, pylang.ListElems(spine)...)
			return f.StmtList(stmts...)
		})

	case EditDeleteStmt:
		// Never delete the last statement of a suite: the renderer would
		// have to emit a pass there, breaking the text round trip.
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			return n.Tag == pylang.TagStmtCons && n.Kids[1].Tag == pylang.TagStmtCons
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(spine *tree.Node) *tree.Node {
			return spine.Kids[1] // drop the head, keep the tail
		})

	case EditMoveDef:
		// Move a top-level definition to another position in the module.
		body := pylang.ListElems(mod.Kids[0])
		var defs []int
		for i, s := range body {
			if s.Tag == pylang.TagFuncDef || s.Tag == pylang.TagClassDef {
				defs = append(defs, i)
			}
		}
		if len(defs) < 1 || len(body) < 2 {
			return nil
		}
		from := defs[g.rng.Intn(len(defs))]
		to := g.rng.Intn(len(body))
		if to == from {
			to = (to + 1) % len(body)
		}
		moved := body[from]
		rest := make([]*tree.Node, 0, len(body))
		for i, s := range body {
			if i != from {
				rest = append(rest, s)
			}
		}
		if to > len(rest) {
			to = len(rest)
		}
		newBody := make([]*tree.Node, 0, len(body))
		newBody = append(newBody, rest[:to]...)
		newBody = append(newBody, moved)
		newBody = append(newBody, rest[to:]...)
		return f.Module(f.StmtList(newBody...))

	case EditWrapIf:
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			srt, _ := f.Schema().ResultSort(n.Tag)
			return srt == pylang.SortStmt && n.Tag != pylang.TagFuncDef && n.Tag != pylang.TagClassDef
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(n *tree.Node) *tree.Node {
			return f.If(g.expr(1), f.StmtList(n), f.StmtList())
		})

	case EditAddParam:
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			return n.Tag == pylang.TagParamNil
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(n *tree.Node) *tree.Node {
			return f.ParamList(f.DefaultParam(g.pick(varNames)+"_opt", g.expr(0)))
		})

	case EditSwapStmts:
		site, ok := pickSite(indexWhere(mod, func(n *tree.Node) bool {
			return n.Tag == pylang.TagStmtCons && n.Kids[1].Tag == pylang.TagStmtCons
		}))
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(spine *tree.Node) *tree.Node {
			first, second, tail := spine.Kids[0], spine.Kids[1].Kids[0], spine.Kids[1].Kids[1]
			out, err := tree.New(f.Schema(), f.Alloc(), pylang.TagStmtCons,
				[]*tree.Node{second, mustCons(f, first, tail)}, nil)
			if err != nil {
				panic(err)
			}
			return out
		})

	case EditReplaceExpr:
		// Positions with a restricted grammar cannot hold arbitrary
		// expressions: loop and comprehension targets (names only) and
		// decorator expressions (dotted names and calls only).
		restricted := restrictedExprSites(mod)
		sites := indexWhere(mod, func(n *tree.Node) bool {
			srt, _ := f.Schema().ResultSort(n.Tag)
			return srt == pylang.SortExpr && n.Tag != pylang.TagKwArg && n.Tag != pylang.TagSliceExpr
		})
		allowed := sites[:0]
		for _, i := range sites {
			if !restricted[i] {
				allowed = append(allowed, i)
			}
		}
		site, ok := pickSite(allowed)
		if !ok {
			return nil
		}
		return g.rebuildAt(mod, site, func(n *tree.Node) *tree.Node {
			return g.expr(1 + g.rng.Intn(2))
		})

	default:
		return nil
	}
}

// restrictedExprSites returns the preorder indices of subtrees that only
// admit a restricted expression grammar when rendered: for/comprehension
// targets and decorator lists.
func restrictedExprSites(mod *tree.Node) map[int]bool {
	out := make(map[int]bool)
	idx := 0
	var walk func(n *tree.Node, restricted bool)
	walk = func(n *tree.Node, restricted bool) {
		if restricted {
			out[idx] = true
		}
		idx++
		for i, k := range n.Kids {
			kidRestricted := restricted
			switch {
			case n.Tag == pylang.TagFor && i == 0:
				kidRestricted = true
			case n.Tag == pylang.TagListComp && i == 1:
				kidRestricted = true
			case n.Tag == pylang.TagDecorated && i == 0:
				kidRestricted = true
			}
			walk(k, kidRestricted)
		}
	}
	walk(mod, false)
	return out
}

func mustCons(f *pylang.Factory, head, tail *tree.Node) *tree.Node {
	out, err := tree.New(f.Schema(), f.Alloc(), pylang.TagStmtCons, []*tree.Node{head, tail}, nil)
	if err != nil {
		panic(err)
	}
	return out
}
