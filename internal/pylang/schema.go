// Package pylang implements a lexer, parser, and renderer for a substantial
// Python subset, producing typed trees over a truechange schema. It plays
// the role of the ANTLR/tree-sitter bindings in the paper's evaluation
// (§5–6), which obtained typed source trees for real-world Python files.
//
// Variable-arity constructs (statement suites, argument lists, parameter
// lists) are encoded as cons lists, the standard algebraic-datatype
// encoding: every constructor has a fixed arity, as truechange signatures
// require. Chained elif branches desugar into nested If nodes, comparison
// chains into conjunctions of binary comparisons, and multi-name imports
// into one import statement per name.
package pylang

import (
	"sync"

	"repro/internal/sig"
)

// Sorts of the Python schema.
const (
	SortModule    sig.Sort = "Module"
	SortStmt      sig.Sort = "Stmt"
	SortStmtList  sig.Sort = "StmtList"
	SortExpr      sig.Sort = "Expr"
	SortExprList  sig.Sort = "ExprList"
	SortParam     sig.Sort = "Param"
	SortParamList sig.Sort = "ParamList"
	SortKV        sig.Sort = "KV"
	SortKVList    sig.Sort = "KVList"
	SortHandler   sig.Sort = "Handler"
	SortHandlers  sig.Sort = "HandlerList"
)

// Tags of the Python schema.
const (
	TagModule sig.Tag = "Module"

	// List spines.
	TagStmtCons  sig.Tag = "StmtCons"
	TagStmtNil   sig.Tag = "StmtNil"
	TagExprCons  sig.Tag = "ExprCons"
	TagExprNil   sig.Tag = "ExprNil"
	TagParamCons sig.Tag = "ParamCons"
	TagParamNil  sig.Tag = "ParamNil"
	TagKVCons    sig.Tag = "KVCons"
	TagKVNil     sig.Tag = "KVNil"

	// Statements.
	TagFuncDef    sig.Tag = "FuncDef"
	TagClassDef   sig.Tag = "ClassDef"
	TagImport     sig.Tag = "Import"
	TagFromImport sig.Tag = "FromImport"
	TagAssign     sig.Tag = "Assign"
	TagAugAssign  sig.Tag = "AugAssign"
	TagExprStmt   sig.Tag = "ExprStmt"
	TagReturn     sig.Tag = "Return"
	TagIf         sig.Tag = "If"
	TagWhile      sig.Tag = "While"
	TagFor        sig.Tag = "For"
	TagPass       sig.Tag = "Pass"
	TagBreak      sig.Tag = "Break"
	TagContinue   sig.Tag = "Continue"
	TagRaise      sig.Tag = "Raise"

	// Extended statements.
	TagDecorated sig.Tag = "Decorated"
	TagTry       sig.Tag = "Try"
	TagHandler   sig.Tag = "Handler"
	TagHandCons  sig.Tag = "HandlerCons"
	TagHandNil   sig.Tag = "HandlerNil"
	TagWith      sig.Tag = "With"
	TagAssert    sig.Tag = "Assert"
	TagDel       sig.Tag = "Del"
	TagGlobal    sig.Tag = "Global"
	TagNonlocal  sig.Tag = "Nonlocal"

	// Parameters.
	TagParam        sig.Tag = "Param"
	TagDefaultParam sig.Tag = "DefaultParam"
	TagStarParam    sig.Tag = "StarParam"
	TagKwStarParam  sig.Tag = "KwStarParam"

	// Expressions.
	TagName      sig.Tag = "Name"
	TagNumInt    sig.Tag = "NumInt"
	TagNumFloat  sig.Tag = "NumFloat"
	TagStr       sig.Tag = "Str"
	TagBool      sig.Tag = "Bool"
	TagNone      sig.Tag = "None"
	TagBinOp     sig.Tag = "BinOp"
	TagUnaryOp   sig.Tag = "UnaryOp"
	TagCompare   sig.Tag = "Compare"
	TagBoolOp    sig.Tag = "BoolOp"
	TagCall      sig.Tag = "Call"
	TagKwArg     sig.Tag = "KwArg"
	TagAttribute sig.Tag = "Attribute"
	TagSubscript sig.Tag = "Subscript"
	TagSliceExpr sig.Tag = "Slice"
	TagListLit   sig.Tag = "ListLit"
	TagTupleLit  sig.Tag = "TupleLit"
	TagDictLit   sig.Tag = "DictLit"

	// Extended expressions.
	TagYield     sig.Tag = "Yield"
	TagLambda    sig.Tag = "Lambda"
	TagIfExp     sig.Tag = "IfExp"
	TagListComp  sig.Tag = "ListComp"
	TagStarArg   sig.Tag = "StarArg"
	TagKwStarArg sig.Tag = "KwStarArg"
)

// Schema returns the Python-subset schema. Every call returns the same
// instance, built on first use; it is shared, so it must not be declared
// into.
func Schema() *sig.Schema { return schema() }

var schema = sync.OnceValue(func() *sig.Schema {
	s := sig.NewSchema("python")

	kid := func(l sig.Link, srt sig.Sort) sig.KidSpec { return sig.KidSpec{Link: l, Sort: srt} }
	str := func(l sig.Link) sig.LitSpec { return sig.LitSpec{Link: l, Type: sig.StringLit} }

	s.MustDeclare(sig.Sig{Tag: TagModule, Kids: []sig.KidSpec{kid("body", SortStmtList)}, Result: SortModule})

	// List spines.
	s.MustDeclare(sig.Sig{Tag: TagStmtCons, Kids: []sig.KidSpec{kid("head", SortStmt), kid("tail", SortStmtList)}, Result: SortStmtList})
	s.MustDeclare(sig.Sig{Tag: TagStmtNil, Result: SortStmtList})
	s.MustDeclare(sig.Sig{Tag: TagExprCons, Kids: []sig.KidSpec{kid("head", SortExpr), kid("tail", SortExprList)}, Result: SortExprList})
	s.MustDeclare(sig.Sig{Tag: TagExprNil, Result: SortExprList})
	s.MustDeclare(sig.Sig{Tag: TagParamCons, Kids: []sig.KidSpec{kid("head", SortParam), kid("tail", SortParamList)}, Result: SortParamList})
	s.MustDeclare(sig.Sig{Tag: TagParamNil, Result: SortParamList})
	s.MustDeclare(sig.Sig{Tag: TagKVCons, Kids: []sig.KidSpec{kid("head", SortKV), kid("tail", SortKVList)}, Result: SortKVList})
	s.MustDeclare(sig.Sig{Tag: TagKVNil, Result: SortKVList})

	// Statements.
	s.MustDeclare(sig.Sig{Tag: TagFuncDef,
		Kids:   []sig.KidSpec{kid("params", SortParamList), kid("body", SortStmtList)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagClassDef,
		Kids:   []sig.KidSpec{kid("bases", SortExprList), kid("body", SortStmtList)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagImport, Lits: []sig.LitSpec{str("module")}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagFromImport, Lits: []sig.LitSpec{str("module"), str("name")}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagAssign,
		Kids:   []sig.KidSpec{kid("target", SortExpr), kid("value", SortExpr)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagAugAssign,
		Kids:   []sig.KidSpec{kid("target", SortExpr), kid("value", SortExpr)},
		Lits:   []sig.LitSpec{str("op")},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagExprStmt, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagReturn, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagIf,
		Kids:   []sig.KidSpec{kid("cond", SortExpr), kid("then", SortStmtList), kid("orelse", SortStmtList)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagWhile,
		Kids:   []sig.KidSpec{kid("cond", SortExpr), kid("body", SortStmtList)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagFor,
		Kids:   []sig.KidSpec{kid("target", SortExpr), kid("iter", SortExpr), kid("body", SortStmtList)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagPass, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagBreak, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagContinue, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagRaise, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortStmt})

	// Parameters.
	s.MustDeclare(sig.Sig{Tag: TagParam, Lits: []sig.LitSpec{str("name")}, Result: SortParam})
	s.MustDeclare(sig.Sig{Tag: TagDefaultParam,
		Kids:   []sig.KidSpec{kid("default", SortExpr)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortParam})

	// Expressions.
	s.MustDeclare(sig.Sig{Tag: TagName, Lits: []sig.LitSpec{str("id")}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagNumInt, Lits: []sig.LitSpec{{Link: "v", Type: sig.IntLit}}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagNumFloat, Lits: []sig.LitSpec{{Link: "v", Type: sig.FloatLit}}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagStr, Lits: []sig.LitSpec{str("v")}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagBool, Lits: []sig.LitSpec{{Link: "v", Type: sig.BoolLit}}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagNone, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagBinOp,
		Kids:   []sig.KidSpec{kid("left", SortExpr), kid("right", SortExpr)},
		Lits:   []sig.LitSpec{str("op")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagUnaryOp,
		Kids:   []sig.KidSpec{kid("operand", SortExpr)},
		Lits:   []sig.LitSpec{str("op")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagCompare,
		Kids:   []sig.KidSpec{kid("left", SortExpr), kid("right", SortExpr)},
		Lits:   []sig.LitSpec{str("op")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagBoolOp,
		Kids:   []sig.KidSpec{kid("left", SortExpr), kid("right", SortExpr)},
		Lits:   []sig.LitSpec{str("op")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagCall,
		Kids:   []sig.KidSpec{kid("func", SortExpr), kid("args", SortExprList)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagKwArg,
		Kids:   []sig.KidSpec{kid("value", SortExpr)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagAttribute,
		Kids:   []sig.KidSpec{kid("value", SortExpr)},
		Lits:   []sig.LitSpec{str("attr")},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagSubscript,
		Kids:   []sig.KidSpec{kid("value", SortExpr), kid("index", SortExpr)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagSliceExpr,
		Kids:   []sig.KidSpec{kid("lo", SortExpr), kid("hi", SortExpr)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagListLit, Kids: []sig.KidSpec{kid("elts", SortExprList)}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagTupleLit, Kids: []sig.KidSpec{kid("elts", SortExprList)}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagDictLit, Kids: []sig.KidSpec{kid("items", SortKVList)}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: "KV",
		Kids:   []sig.KidSpec{kid("key", SortExpr), kid("val", SortExpr)},
		Result: SortKV})

	// Extended statements.
	s.MustDeclare(sig.Sig{Tag: TagDecorated,
		Kids:   []sig.KidSpec{kid("decorators", SortExprList), kid("def", SortStmt)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagTry,
		Kids: []sig.KidSpec{
			kid("body", SortStmtList), kid("handlers", SortHandlers),
			kid("orelse", SortStmtList), kid("final", SortStmtList)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagHandler,
		Kids:   []sig.KidSpec{kid("etype", SortExpr), kid("body", SortStmtList)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortHandler})
	s.MustDeclare(sig.Sig{Tag: TagHandCons,
		Kids:   []sig.KidSpec{kid("head", SortHandler), kid("tail", SortHandlers)},
		Result: SortHandlers})
	s.MustDeclare(sig.Sig{Tag: TagHandNil, Result: SortHandlers})
	s.MustDeclare(sig.Sig{Tag: TagWith,
		Kids:   []sig.KidSpec{kid("ctx", SortExpr), kid("body", SortStmtList)},
		Lits:   []sig.LitSpec{str("name")},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagAssert,
		Kids:   []sig.KidSpec{kid("cond", SortExpr), kid("msg", SortExpr)},
		Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagDel, Kids: []sig.KidSpec{kid("target", SortExpr)}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagGlobal, Lits: []sig.LitSpec{str("name")}, Result: SortStmt})
	s.MustDeclare(sig.Sig{Tag: TagNonlocal, Lits: []sig.LitSpec{str("name")}, Result: SortStmt})

	// Extended parameters.
	s.MustDeclare(sig.Sig{Tag: TagStarParam, Lits: []sig.LitSpec{str("name")}, Result: SortParam})
	s.MustDeclare(sig.Sig{Tag: TagKwStarParam, Lits: []sig.LitSpec{str("name")}, Result: SortParam})

	// Extended expressions.
	s.MustDeclare(sig.Sig{Tag: TagYield, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagLambda,
		Kids:   []sig.KidSpec{kid("params", SortParamList), kid("body", SortExpr)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagIfExp,
		Kids:   []sig.KidSpec{kid("then", SortExpr), kid("cond", SortExpr), kid("orelse", SortExpr)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagListComp,
		Kids: []sig.KidSpec{
			kid("elt", SortExpr), kid("target", SortExpr),
			kid("iter", SortExpr), kid("cond", SortExpr)},
		Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagStarArg, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortExpr})
	s.MustDeclare(sig.Sig{Tag: TagKwStarArg, Kids: []sig.KidSpec{kid("value", SortExpr)}, Result: SortExpr})

	return s
})

// TagKV is the dictionary entry constructor.
const TagKV sig.Tag = "KV"
