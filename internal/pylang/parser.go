package pylang

import (
	"fmt"
	"strconv"

	"repro/internal/tree"
)

// ParseError reports a syntax error with its source position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("pylang: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse lexes and parses Python source into a typed module tree built
// through the factory. URIs are drawn from the factory's allocator, so
// parsing successive versions of a document with one factory keeps URIs
// unique across versions.
//
// Parsing is incremental, as tree-sitter's is: the factory keeps its last
// successful parse, and every statement, at any nesting level, whose exact
// text it parsed then is reused with its digests instead of being lexed
// into nodes and hashed again. Only changed statements and the spines
// above them are built. The result equals a fresh parse of src. It shares
// each reused statement, URIs included, with the trees the factory
// returned before, so a URI names one node across all of the factory's
// trees; no node occurs twice within one tree. A failed parse leaves the
// kept parse as it was.
func Parse(src string, f *Factory) (mod *tree.Node, err error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, f: f, ix: f.last.next(src)}
	if f.last != nil {
		p.taken = make([]bool, len(f.last.recs))
	}
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*ParseError); ok {
				mod, err = nil, pe
				return
			}
			panic(r)
		}
	}()
	mod = p.module()
	f.last = p.ix
	return mod, nil
}

// ParseNew is Parse with a fresh factory; it returns the factory so the
// caller can parse related documents against the same allocator.
func ParseNew(src string) (*tree.Node, *Factory, error) {
	f := NewFactory()
	mod, err := Parse(src, f)
	return mod, f, err
}

type parser struct {
	src  string
	toks []Token
	pos  int
	f    *Factory
	// ix indexes this parse's statements; it replaces the factory's kept
	// index once the parse succeeds.
	ix *index
	// taken marks the records of the kept index whose nodes this parse
	// has adopted, so no node enters the tree twice.
	taken []bool
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) fail(format string, args ...any) {
	t := p.cur()
	panic(&ParseError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) Token {
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = kind.String()
		}
		p.fail("expected %q, found %s", want, p.cur())
	}
	return p.next()
}

func (p *parser) expectName() string {
	if !p.at(TokName, "") {
		p.fail("expected identifier, found %s", p.cur())
	}
	return p.next().Text
}

// module := stmt* EOF
func (p *parser) module() *tree.Node {
	var stmts []*tree.Node
	for !p.at(TokEOF, "") {
		stmts = append(stmts, p.listStmt()...)
	}
	return p.f.Module(p.f.StmtList(stmts...))
}

// stmt parses one logical statement; simple statements may expand into
// several nodes (multi-name imports, semicolon-joined statements).
func (p *parser) stmt() []*tree.Node {
	t := p.cur()
	if t.Kind == TokOp && t.Text == "@" {
		return []*tree.Node{p.decorated()}
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "def":
			return []*tree.Node{p.funcDef()}
		case "class":
			return []*tree.Node{p.classDef()}
		case "if":
			return []*tree.Node{p.ifStmt()}
		case "while":
			return []*tree.Node{p.whileStmt()}
		case "for":
			return []*tree.Node{p.forStmt()}
		case "try":
			return []*tree.Node{p.tryStmt()}
		case "with":
			return []*tree.Node{p.withStmt()}
		}
	}
	return p.simpleStmtLine()
}

// decorated := ('@' expr NEWLINE)+ (funcdef | classdef)
func (p *parser) decorated() *tree.Node {
	var decs []*tree.Node
	for p.accept(TokOp, "@") {
		decs = append(decs, p.trailerExpr())
		p.expect(TokNewline, "")
	}
	var def *tree.Node
	switch {
	case p.at(TokKeyword, "def"):
		def = p.funcDef()
	case p.at(TokKeyword, "class"):
		def = p.classDef()
	default:
		p.fail("expected def or class after decorators")
	}
	return p.f.Decorated(p.f.ExprList(decs...), def)
}

// tryStmt := 'try' suite handler* ['else' suite] ['finally' suite]
// handler := 'except' [test ['as' NAME]] suite
func (p *parser) tryStmt() *tree.Node {
	p.expect(TokKeyword, "try")
	body := p.suite()
	var handlers []*tree.Node
	for p.accept(TokKeyword, "except") {
		etype := p.f.None()
		name := ""
		if !p.at(TokOp, ":") {
			etype = p.test()
			if p.accept(TokKeyword, "as") {
				name = p.expectName()
			}
		}
		handlers = append(handlers, p.f.Handler(etype, name, p.suite()))
	}
	orelse := p.f.StmtList()
	if p.accept(TokKeyword, "else") {
		orelse = p.suite()
	}
	final := p.f.StmtList()
	if p.accept(TokKeyword, "finally") {
		final = p.suite()
	}
	if len(handlers) == 0 && len(ListElems(final)) == 0 {
		p.fail("try statement needs an except or finally clause")
	}
	return p.f.Try(body, p.f.HandlerList(handlers...), orelse, final)
}

// withStmt := 'with' item (',' item)* suite; multiple items nest.
func (p *parser) withStmt() *tree.Node {
	p.expect(TokKeyword, "with")
	type item struct {
		ctx  *tree.Node
		name string
	}
	var items []item
	for {
		it := item{ctx: p.test()}
		if p.accept(TokKeyword, "as") {
			it.name = p.expectName()
		}
		items = append(items, it)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	body := p.suite()
	for i := len(items) - 1; i >= 0; i-- {
		w := p.f.With(items[i].ctx, items[i].name, body)
		body = p.f.StmtList(w)
		if i == 0 {
			return w
		}
	}
	p.fail("with statement without items")
	return nil
}

// simpleStmtLine := small_stmt (';' small_stmt)* NEWLINE
func (p *parser) simpleStmtLine() []*tree.Node {
	var out []*tree.Node
	out = append(out, p.smallStmt()...)
	for p.accept(TokOp, ";") {
		if p.at(TokNewline, "") {
			break
		}
		out = append(out, p.smallStmt()...)
	}
	p.expect(TokNewline, "")
	return out
}

func (p *parser) smallStmt() []*tree.Node {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "pass":
			p.next()
			return []*tree.Node{p.f.Pass()}
		case "break":
			p.next()
			return []*tree.Node{p.f.Break()}
		case "continue":
			p.next()
			return []*tree.Node{p.f.Continue()}
		case "return":
			p.next()
			if p.at(TokNewline, "") || p.at(TokOp, ";") {
				return []*tree.Node{p.f.Return(p.f.None())}
			}
			return []*tree.Node{p.f.Return(p.testlist())}
		case "raise":
			p.next()
			return []*tree.Node{p.f.Raise(p.test())}
		case "assert":
			p.next()
			cond := p.test()
			msg := p.f.None()
			if p.accept(TokOp, ",") {
				msg = p.test()
			}
			return []*tree.Node{p.f.Assert(cond, msg)}
		case "del":
			p.next()
			return []*tree.Node{p.f.Del(p.test())}
		case "global":
			p.next()
			out := []*tree.Node{p.f.Global(p.expectName())}
			for p.accept(TokOp, ",") {
				out = append(out, p.f.Global(p.expectName()))
			}
			return out
		case "nonlocal":
			p.next()
			out := []*tree.Node{p.f.Nonlocal(p.expectName())}
			for p.accept(TokOp, ",") {
				out = append(out, p.f.Nonlocal(p.expectName()))
			}
			return out
		case "import":
			p.next()
			return []*tree.Node{p.f.Import(p.dottedName())}
		case "from":
			p.next()
			module := p.dottedName()
			p.expect(TokKeyword, "import")
			var out []*tree.Node
			out = append(out, p.f.FromImport(module, p.expectName()))
			for p.accept(TokOp, ",") {
				out = append(out, p.f.FromImport(module, p.expectName()))
			}
			return out
		}
	}
	return p.exprStmt()
}

func (p *parser) dottedName() string {
	name := p.expectName()
	for p.accept(TokOp, ".") {
		name += "." + p.expectName()
	}
	return name
}

var augOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%", "//=": "//", "**=": "**",
}

// exprStmt := testlist (('=' testlist)+ | augop testlist)?
// Chained assignments a = b = c desugar into one assignment per target,
// each with its own copy of the value.
func (p *parser) exprStmt() []*tree.Node {
	target := p.testlist()
	t := p.cur()
	if t.Kind == TokOp {
		if t.Text == "=" {
			targets := []*tree.Node{target}
			var value *tree.Node
			for p.accept(TokOp, "=") {
				value = p.testlist()
				if p.at(TokOp, "=") {
					targets = append(targets, value)
				}
			}
			out := make([]*tree.Node, len(targets))
			for i, tgt := range targets {
				v := value
				if i > 0 {
					v = tree.CloneKeepDigests(value, p.f.Alloc())
				}
				out[i] = p.f.Assign(tgt, v)
			}
			return out
		}
		if op, ok := augOps[t.Text]; ok {
			p.next()
			return []*tree.Node{p.f.AugAssign(op, target, p.testlist())}
		}
	}
	return []*tree.Node{p.f.ExprStmt(target)}
}

// suite := ':' (simple_stmt_line | NEWLINE INDENT stmt+ DEDENT)
func (p *parser) suite() *tree.Node {
	p.expect(TokOp, ":")
	if !p.accept(TokNewline, "") {
		return p.f.StmtList(p.simpleStmtLine()...)
	}
	p.expect(TokIndent, "")
	var stmts []*tree.Node
	for !p.at(TokDedent, "") && !p.at(TokEOF, "") {
		stmts = append(stmts, p.listStmt()...)
	}
	p.expect(TokDedent, "")
	if len(stmts) == 0 {
		p.fail("empty suite")
	}
	return p.f.StmtList(stmts...)
}

func (p *parser) funcDef() *tree.Node {
	p.expect(TokKeyword, "def")
	name := p.expectName()
	p.expect(TokOp, "(")
	var params []*tree.Node
	for !p.at(TokOp, ")") {
		switch {
		case p.accept(TokOp, "**"):
			params = append(params, p.f.KwStarParam(p.expectName()))
		case p.accept(TokOp, "*"):
			params = append(params, p.f.StarParam(p.expectName()))
		default:
			pname := p.expectName()
			if p.accept(TokOp, "=") {
				params = append(params, p.f.DefaultParam(pname, p.test()))
			} else {
				params = append(params, p.f.Param(pname))
			}
		}
		if !p.accept(TokOp, ",") {
			break
		}
	}
	p.expect(TokOp, ")")
	if p.accept(TokOp, "->") { // annotation: parsed and discarded
		p.test()
	}
	return p.f.FuncDef(name, p.f.ParamList(params...), p.suite())
}

func (p *parser) classDef() *tree.Node {
	p.expect(TokKeyword, "class")
	name := p.expectName()
	var bases []*tree.Node
	if p.accept(TokOp, "(") {
		for !p.at(TokOp, ")") {
			bases = append(bases, p.test())
			if !p.accept(TokOp, ",") {
				break
			}
		}
		p.expect(TokOp, ")")
	}
	return p.f.ClassDef(name, p.f.ExprList(bases...), p.suite())
}

// ifStmt desugars elif chains into nested If nodes in the orelse branch.
func (p *parser) ifStmt() *tree.Node {
	p.expect(TokKeyword, "if")
	return p.ifClause()
}

// ifClause parses the rest of an if or elif clause after its keyword. It
// only reads tokens: the boundary scan of the index reads them too.
func (p *parser) ifClause() *tree.Node {
	cond := p.test()
	then := p.suite()
	orelse := p.f.StmtList()
	if p.accept(TokKeyword, "elif") {
		orelse = p.f.StmtList(p.ifClause())
	} else if p.accept(TokKeyword, "else") {
		orelse = p.suite()
	}
	return p.f.If(cond, then, orelse)
}

func (p *parser) whileStmt() *tree.Node {
	p.expect(TokKeyword, "while")
	cond := p.test()
	return p.f.While(cond, p.suite())
}

func (p *parser) forStmt() *tree.Node {
	p.expect(TokKeyword, "for")
	target := p.targetList()
	p.expect(TokKeyword, "in")
	iter := p.testlist()
	return p.f.For(target, iter, p.suite())
}

// targetList := NAME (',' NAME)* — a plain name or a tuple of names.
func (p *parser) targetList() *tree.Node {
	first := p.f.Name(p.expectName())
	if !p.at(TokOp, ",") {
		return first
	}
	elts := []*tree.Node{first}
	for p.accept(TokOp, ",") {
		elts = append(elts, p.f.Name(p.expectName()))
	}
	return p.f.Tuple(p.f.ExprList(elts...))
}

// testlist := test (',' test)* — an unparenthesized tuple if a comma occurs.
func (p *parser) testlist() *tree.Node {
	first := p.test()
	if !p.at(TokOp, ",") {
		return first
	}
	elts := []*tree.Node{first}
	for p.accept(TokOp, ",") {
		if p.startsTest() {
			elts = append(elts, p.test())
		} else {
			break // trailing comma
		}
	}
	return p.f.Tuple(p.f.ExprList(elts...))
}

func (p *parser) startsTest() bool {
	t := p.cur()
	switch t.Kind {
	case TokName, TokInt, TokFloat, TokString:
		return true
	case TokKeyword:
		switch t.Text {
		case "not", "True", "False", "None", "lambda", "yield":
			return true
		}
		return false
	case TokOp:
		return t.Text == "(" || t.Text == "[" || t.Text == "{" || t.Text == "-" || t.Text == "+"
	default:
		return false
	}
}

// Expression grammar, loosest binding first.

// test := lambda | yield | or_test ['if' or_test 'else' test]
func (p *parser) test() *tree.Node {
	if p.at(TokKeyword, "lambda") {
		return p.lambda()
	}
	if p.accept(TokKeyword, "yield") {
		if p.startsTest() {
			return p.f.Yield(p.test())
		}
		return p.f.Yield(p.f.None())
	}
	then := p.orTest()
	if p.accept(TokKeyword, "if") {
		cond := p.orTest()
		p.expect(TokKeyword, "else")
		return p.f.IfExp(then, cond, p.test())
	}
	return then
}

// lambda := 'lambda' [params] ':' test
func (p *parser) lambda() *tree.Node {
	p.expect(TokKeyword, "lambda")
	var params []*tree.Node
	for p.at(TokName, "") {
		pname := p.expectName()
		if p.accept(TokOp, "=") {
			params = append(params, p.f.DefaultParam(pname, p.test()))
		} else {
			params = append(params, p.f.Param(pname))
		}
		if !p.accept(TokOp, ",") {
			break
		}
	}
	p.expect(TokOp, ":")
	return p.f.Lambda(p.f.ParamList(params...), p.test())
}

func (p *parser) orTest() *tree.Node {
	left := p.andTest()
	for p.accept(TokKeyword, "or") {
		left = p.f.BoolOp("or", left, p.andTest())
	}
	return left
}

func (p *parser) andTest() *tree.Node {
	left := p.notTest()
	for p.accept(TokKeyword, "and") {
		left = p.f.BoolOp("and", left, p.notTest())
	}
	return left
}

func (p *parser) notTest() *tree.Node {
	if p.accept(TokKeyword, "not") {
		return p.f.UnaryOp("not", p.notTest())
	}
	return p.comparison()
}

// comparison := arith (compop arith)* — chains are left-nested.
func (p *parser) comparison() *tree.Node {
	left := p.arith()
	for {
		op, ok := p.compOp()
		if !ok {
			return left
		}
		left = p.f.Compare(op, left, p.arith())
	}
}

func (p *parser) compOp() (string, bool) {
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "<", ">", "==", "!=", "<=", ">=":
			p.next()
			return t.Text, true
		}
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "in":
			p.next()
			return "in", true
		case "is":
			p.next()
			if p.accept(TokKeyword, "not") {
				return "is not", true
			}
			return "is", true
		case "not":
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "in" {
				p.next()
				p.next()
				return "not in", true
			}
		}
	}
	return "", false
}

func (p *parser) arith() *tree.Node {
	left := p.term()
	for {
		t := p.cur()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-") {
			p.next()
			left = p.f.BinOp(t.Text, left, p.term())
		} else {
			return left
		}
	}
}

func (p *parser) term() *tree.Node {
	left := p.factor()
	for {
		t := p.cur()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%" || t.Text == "//") {
			p.next()
			left = p.f.BinOp(t.Text, left, p.factor())
		} else {
			return left
		}
	}
}

func (p *parser) factor() *tree.Node {
	t := p.cur()
	if t.Kind == TokOp && (t.Text == "-" || t.Text == "+") {
		p.next()
		return p.f.UnaryOp(t.Text, p.factor())
	}
	return p.power()
}

// power := trailer_expr ('**' factor)? — right associative.
func (p *parser) power() *tree.Node {
	base := p.trailerExpr()
	if p.accept(TokOp, "**") {
		return p.f.BinOp("**", base, p.factor())
	}
	return base
}

func (p *parser) trailerExpr() *tree.Node {
	e := p.atom()
	for {
		switch {
		case p.accept(TokOp, "("):
			var args []*tree.Node
			for !p.at(TokOp, ")") {
				args = append(args, p.argument())
				if !p.accept(TokOp, ",") {
					break
				}
			}
			p.expect(TokOp, ")")
			e = p.f.Call(e, p.f.ExprList(args...))
		case p.accept(TokOp, "["):
			e = p.f.Subscript(e, p.subscript())
		case p.accept(TokOp, "."):
			e = p.f.Attribute(e, p.expectName())
		default:
			return e
		}
	}
}

// argument := '*' test | '**' test | NAME '=' test | test
func (p *parser) argument() *tree.Node {
	if p.accept(TokOp, "**") {
		return p.f.KwStarArg(p.test())
	}
	if p.accept(TokOp, "*") {
		return p.f.StarArg(p.test())
	}
	if p.at(TokName, "") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "=" {
		name := p.next().Text
		p.next() // '='
		return p.f.KwArg(name, p.test())
	}
	return p.test()
}

// subscript := test | [test] ':' [test], closed by ']'.
func (p *parser) subscript() *tree.Node {
	var lo *tree.Node
	if p.at(TokOp, ":") {
		lo = p.f.None()
	} else {
		lo = p.test()
	}
	if p.accept(TokOp, ":") {
		var hi *tree.Node
		if p.at(TokOp, "]") {
			hi = p.f.None()
		} else {
			hi = p.test()
		}
		p.expect(TokOp, "]")
		return p.f.Slice(lo, hi)
	}
	p.expect(TokOp, "]")
	return lo
}

func (p *parser) atom() *tree.Node {
	t := p.cur()
	switch t.Kind {
	case TokName:
		p.next()
		return p.f.Name(t.Text)
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.fail("bad integer literal %q", t.Text)
		}
		return p.f.Int(v)
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.fail("bad float literal %q", t.Text)
		}
		return p.f.Float(v)
	case TokString:
		p.next()
		s := t.Text
		for p.at(TokString, "") { // adjacent string literal concatenation
			s += p.next().Text
		}
		return p.f.Str(s)
	case TokKeyword:
		switch t.Text {
		case "True":
			p.next()
			return p.f.Bool(true)
		case "False":
			p.next()
			return p.f.Bool(false)
		case "None":
			p.next()
			return p.f.None()
		}
	case TokOp:
		switch t.Text {
		case "(":
			p.next()
			if p.accept(TokOp, ")") {
				return p.f.Tuple(p.f.ExprList())
			}
			first := p.test()
			if p.at(TokOp, ",") {
				elts := []*tree.Node{first}
				for p.accept(TokOp, ",") {
					if p.at(TokOp, ")") {
						break
					}
					elts = append(elts, p.test())
				}
				p.expect(TokOp, ")")
				return p.f.Tuple(p.f.ExprList(elts...))
			}
			p.expect(TokOp, ")")
			return first // parenthesized expression
		case "[":
			p.next()
			if p.at(TokOp, "]") {
				p.next()
				return p.f.List(p.f.ExprList())
			}
			first := p.test()
			if p.at(TokKeyword, "for") {
				p.next()
				target := p.targetList()
				p.expect(TokKeyword, "in")
				iter := p.orTest()
				cond := p.f.None()
				if p.accept(TokKeyword, "if") {
					cond = p.orTest()
				}
				p.expect(TokOp, "]")
				return p.f.ListComp(first, target, iter, cond)
			}
			elts := []*tree.Node{first}
			for p.accept(TokOp, ",") {
				if p.at(TokOp, "]") {
					break
				}
				elts = append(elts, p.test())
			}
			p.expect(TokOp, "]")
			return p.f.List(p.f.ExprList(elts...))
		case "{":
			p.next()
			var items []*tree.Node
			for !p.at(TokOp, "}") {
				key := p.test()
				p.expect(TokOp, ":")
				items = append(items, p.f.KV(key, p.test()))
				if !p.accept(TokOp, ",") {
					break
				}
			}
			p.expect(TokOp, "}")
			return p.f.Dict(p.f.KVList(items...))
		}
	}
	p.fail("unexpected token %s", t)
	return nil
}
