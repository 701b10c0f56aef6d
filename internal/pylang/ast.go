package pylang

import (
	"fmt"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Factory constructs Python AST nodes as typed trees. It wraps a schema and
// a URI allocator; one factory typically serves one document (or one
// synthetic repository), so URIs stay unique across versions.
//
// A factory also keeps its last successful parse, so that Parse reuses
// every statement whose text is unchanged: its memory is one tree and one
// source text beyond its allocator. Like its allocator, a factory is not
// safe for concurrent use.
type Factory struct {
	sch   *sig.Schema
	alloc *uri.Allocator
	last  *index // the statements of the last successful parse, or nil
}

// NewFactory returns a factory over the shared Python schema and a fresh
// allocator.
func NewFactory() *Factory {
	return &Factory{sch: Schema(), alloc: uri.NewAllocator()}
}

// NewFactoryWith returns a factory over an existing schema and allocator.
// The factory keeps its last parse for reuse and, like the allocator, is
// not safe for concurrent use.
func NewFactoryWith(sch *sig.Schema, alloc *uri.Allocator) *Factory {
	return &Factory{sch: sch, alloc: alloc}
}

// Schema returns the factory's schema.
func (f *Factory) Schema() *sig.Schema { return f.sch }

// Alloc returns the factory's URI allocator.
func (f *Factory) Alloc() *uri.Allocator { return f.alloc }

// node constructs a validated node; construction errors indicate factory or
// parser bugs (the schema is fixed), so they panic with context.
func (f *Factory) node(tag sig.Tag, kids []*tree.Node, lits []any) *tree.Node {
	n, err := tree.New(f.sch, f.alloc, tag, kids, lits)
	if err != nil {
		panic(fmt.Sprintf("pylang: internal construction error: %v", err))
	}
	return n
}

// Module wraps a statement list into a module.
func (f *Factory) Module(body *tree.Node) *tree.Node {
	return f.node(TagModule, []*tree.Node{body}, nil)
}

// StmtList builds the cons-list spine for a statement suite.
func (f *Factory) StmtList(stmts ...*tree.Node) *tree.Node {
	out := f.node(TagStmtNil, nil, nil)
	for i := len(stmts) - 1; i >= 0; i-- {
		out = f.node(TagStmtCons, []*tree.Node{stmts[i], out}, nil)
	}
	return out
}

// ExprList builds the cons-list spine for an expression list.
func (f *Factory) ExprList(exprs ...*tree.Node) *tree.Node {
	out := f.node(TagExprNil, nil, nil)
	for i := len(exprs) - 1; i >= 0; i-- {
		out = f.node(TagExprCons, []*tree.Node{exprs[i], out}, nil)
	}
	return out
}

// ParamList builds the cons-list spine for a parameter list.
func (f *Factory) ParamList(params ...*tree.Node) *tree.Node {
	out := f.node(TagParamNil, nil, nil)
	for i := len(params) - 1; i >= 0; i-- {
		out = f.node(TagParamCons, []*tree.Node{params[i], out}, nil)
	}
	return out
}

// KVList builds the cons-list spine for dictionary items.
func (f *Factory) KVList(items ...*tree.Node) *tree.Node {
	out := f.node(TagKVNil, nil, nil)
	for i := len(items) - 1; i >= 0; i-- {
		out = f.node(TagKVCons, []*tree.Node{items[i], out}, nil)
	}
	return out
}

// Statements.

// FuncDef builds def name(params): body.
func (f *Factory) FuncDef(name string, params, body *tree.Node) *tree.Node {
	return f.node(TagFuncDef, []*tree.Node{params, body}, []any{name})
}

// ClassDef builds class name(bases): body.
func (f *Factory) ClassDef(name string, bases, body *tree.Node) *tree.Node {
	return f.node(TagClassDef, []*tree.Node{bases, body}, []any{name})
}

// Import builds import module.
func (f *Factory) Import(module string) *tree.Node {
	return f.node(TagImport, nil, []any{module})
}

// FromImport builds from module import name.
func (f *Factory) FromImport(module, name string) *tree.Node {
	return f.node(TagFromImport, nil, []any{module, name})
}

// Assign builds target = value.
func (f *Factory) Assign(target, value *tree.Node) *tree.Node {
	return f.node(TagAssign, []*tree.Node{target, value}, nil)
}

// AugAssign builds target op= value.
func (f *Factory) AugAssign(op string, target, value *tree.Node) *tree.Node {
	return f.node(TagAugAssign, []*tree.Node{target, value}, []any{op})
}

// ExprStmt wraps an expression as a statement.
func (f *Factory) ExprStmt(value *tree.Node) *tree.Node {
	return f.node(TagExprStmt, []*tree.Node{value}, nil)
}

// Return builds return value (bare return carries None).
func (f *Factory) Return(value *tree.Node) *tree.Node {
	return f.node(TagReturn, []*tree.Node{value}, nil)
}

// If builds if cond: then else: orelse.
func (f *Factory) If(cond, then, orelse *tree.Node) *tree.Node {
	return f.node(TagIf, []*tree.Node{cond, then, orelse}, nil)
}

// While builds while cond: body.
func (f *Factory) While(cond, body *tree.Node) *tree.Node {
	return f.node(TagWhile, []*tree.Node{cond, body}, nil)
}

// For builds for target in iter: body.
func (f *Factory) For(target, iter, body *tree.Node) *tree.Node {
	return f.node(TagFor, []*tree.Node{target, iter, body}, nil)
}

// Pass builds the pass statement.
func (f *Factory) Pass() *tree.Node { return f.node(TagPass, nil, nil) }

// Break builds the break statement.
func (f *Factory) Break() *tree.Node { return f.node(TagBreak, nil, nil) }

// Continue builds the continue statement.
func (f *Factory) Continue() *tree.Node { return f.node(TagContinue, nil, nil) }

// Raise builds raise value.
func (f *Factory) Raise(value *tree.Node) *tree.Node {
	return f.node(TagRaise, []*tree.Node{value}, nil)
}

// Parameters.

// Param builds a plain parameter.
func (f *Factory) Param(name string) *tree.Node {
	return f.node(TagParam, nil, []any{name})
}

// DefaultParam builds name=default.
func (f *Factory) DefaultParam(name string, def *tree.Node) *tree.Node {
	return f.node(TagDefaultParam, []*tree.Node{def}, []any{name})
}

// Expressions.

// Name builds an identifier reference.
func (f *Factory) Name(id string) *tree.Node { return f.node(TagName, nil, []any{id}) }

// Int builds an integer literal.
func (f *Factory) Int(v int64) *tree.Node { return f.node(TagNumInt, nil, []any{v}) }

// Float builds a float literal.
func (f *Factory) Float(v float64) *tree.Node { return f.node(TagNumFloat, nil, []any{v}) }

// Str builds a string literal.
func (f *Factory) Str(v string) *tree.Node { return f.node(TagStr, nil, []any{v}) }

// Bool builds True or False.
func (f *Factory) Bool(v bool) *tree.Node { return f.node(TagBool, nil, []any{v}) }

// None builds the None literal.
func (f *Factory) None() *tree.Node { return f.node(TagNone, nil, nil) }

// BinOp builds left op right for arithmetic operators.
func (f *Factory) BinOp(op string, left, right *tree.Node) *tree.Node {
	return f.node(TagBinOp, []*tree.Node{left, right}, []any{op})
}

// UnaryOp builds op operand.
func (f *Factory) UnaryOp(op string, operand *tree.Node) *tree.Node {
	return f.node(TagUnaryOp, []*tree.Node{operand}, []any{op})
}

// Compare builds left op right for comparison operators.
func (f *Factory) Compare(op string, left, right *tree.Node) *tree.Node {
	return f.node(TagCompare, []*tree.Node{left, right}, []any{op})
}

// BoolOp builds left and/or right.
func (f *Factory) BoolOp(op string, left, right *tree.Node) *tree.Node {
	return f.node(TagBoolOp, []*tree.Node{left, right}, []any{op})
}

// Call builds func(args).
func (f *Factory) Call(fn, args *tree.Node) *tree.Node {
	return f.node(TagCall, []*tree.Node{fn, args}, nil)
}

// KwArg builds name=value inside an argument list.
func (f *Factory) KwArg(name string, value *tree.Node) *tree.Node {
	return f.node(TagKwArg, []*tree.Node{value}, []any{name})
}

// Attribute builds value.attr.
func (f *Factory) Attribute(value *tree.Node, attr string) *tree.Node {
	return f.node(TagAttribute, []*tree.Node{value}, []any{attr})
}

// Subscript builds value[index].
func (f *Factory) Subscript(value, index *tree.Node) *tree.Node {
	return f.node(TagSubscript, []*tree.Node{value, index}, nil)
}

// Slice builds lo:hi (use None for open ends).
func (f *Factory) Slice(lo, hi *tree.Node) *tree.Node {
	return f.node(TagSliceExpr, []*tree.Node{lo, hi}, nil)
}

// List builds [elts...].
func (f *Factory) List(elts *tree.Node) *tree.Node {
	return f.node(TagListLit, []*tree.Node{elts}, nil)
}

// Tuple builds (elts...).
func (f *Factory) Tuple(elts *tree.Node) *tree.Node {
	return f.node(TagTupleLit, []*tree.Node{elts}, nil)
}

// Dict builds {items...}.
func (f *Factory) Dict(items *tree.Node) *tree.Node {
	return f.node(TagDictLit, []*tree.Node{items}, nil)
}

// KV builds key: val inside a dict literal.
func (f *Factory) KV(key, val *tree.Node) *tree.Node {
	return f.node(TagKV, []*tree.Node{key, val}, nil)
}

// Extended statements.

// Decorated wraps a def or class in its decorator list.
func (f *Factory) Decorated(decorators, def *tree.Node) *tree.Node {
	return f.node(TagDecorated, []*tree.Node{decorators, def}, nil)
}

// HandlerList builds the cons-list spine for except handlers.
func (f *Factory) HandlerList(handlers ...*tree.Node) *tree.Node {
	out := f.node(TagHandNil, nil, nil)
	for i := len(handlers) - 1; i >= 0; i-- {
		out = f.node(TagHandCons, []*tree.Node{handlers[i], out}, nil)
	}
	return out
}

// Handler builds except etype as name: body. A bare except carries a None
// etype and an empty name.
func (f *Factory) Handler(etype *tree.Node, name string, body *tree.Node) *tree.Node {
	return f.node(TagHandler, []*tree.Node{etype, body}, []any{name})
}

// Try builds try: body except… else: orelse finally: final.
func (f *Factory) Try(body, handlers, orelse, final *tree.Node) *tree.Node {
	return f.node(TagTry, []*tree.Node{body, handlers, orelse, final}, nil)
}

// With builds with ctx as name: body (empty name for no binding).
func (f *Factory) With(ctx *tree.Node, name string, body *tree.Node) *tree.Node {
	return f.node(TagWith, []*tree.Node{ctx, body}, []any{name})
}

// Assert builds assert cond, msg (msg None if absent).
func (f *Factory) Assert(cond, msg *tree.Node) *tree.Node {
	return f.node(TagAssert, []*tree.Node{cond, msg}, nil)
}

// Del builds del target.
func (f *Factory) Del(target *tree.Node) *tree.Node {
	return f.node(TagDel, []*tree.Node{target}, nil)
}

// Global builds global name.
func (f *Factory) Global(name string) *tree.Node {
	return f.node(TagGlobal, nil, []any{name})
}

// Nonlocal builds nonlocal name.
func (f *Factory) Nonlocal(name string) *tree.Node {
	return f.node(TagNonlocal, nil, []any{name})
}

// StarParam builds *name.
func (f *Factory) StarParam(name string) *tree.Node {
	return f.node(TagStarParam, nil, []any{name})
}

// KwStarParam builds **name.
func (f *Factory) KwStarParam(name string) *tree.Node {
	return f.node(TagKwStarParam, nil, []any{name})
}

// Extended expressions.

// Yield builds yield value (value None for a bare yield).
func (f *Factory) Yield(value *tree.Node) *tree.Node {
	return f.node(TagYield, []*tree.Node{value}, nil)
}

// Lambda builds lambda params: body.
func (f *Factory) Lambda(params, body *tree.Node) *tree.Node {
	return f.node(TagLambda, []*tree.Node{params, body}, nil)
}

// IfExp builds then if cond else orelse.
func (f *Factory) IfExp(then, cond, orelse *tree.Node) *tree.Node {
	return f.node(TagIfExp, []*tree.Node{then, cond, orelse}, nil)
}

// ListComp builds [elt for target in iter if cond] (cond None if absent).
func (f *Factory) ListComp(elt, target, iter, cond *tree.Node) *tree.Node {
	return f.node(TagListComp, []*tree.Node{elt, target, iter, cond}, nil)
}

// StarArg builds *value in a call argument list.
func (f *Factory) StarArg(value *tree.Node) *tree.Node {
	return f.node(TagStarArg, []*tree.Node{value}, nil)
}

// KwStarArg builds **value in a call argument list.
func (f *Factory) KwStarArg(value *tree.Node) *tree.Node {
	return f.node(TagKwStarArg, []*tree.Node{value}, nil)
}

// ListElems flattens a cons-list spine (StmtList, ExprList, ParamList,
// KVList, or HandlerList) into a slice of its element subtrees.
func ListElems(list *tree.Node) []*tree.Node {
	var out []*tree.Node
	for list != nil && len(list.Kids) == 2 {
		switch list.Tag {
		case TagStmtCons, TagExprCons, TagParamCons, TagKVCons, TagHandCons:
			out = append(out, list.Kids[0])
			list = list.Kids[1]
		default:
			return out
		}
	}
	return out
}
