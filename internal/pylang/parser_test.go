package pylang

import (
	"strings"
	"testing"

	"repro/internal/sig"
	"repro/internal/tree"
)

func parseOK(t *testing.T, src string) *tree.Node {
	t.Helper()
	mod, _, err := ParseNew(src)
	if err != nil {
		t.Fatalf("parse:\n%s\nerror: %v", src, err)
	}
	return mod
}

// shape returns a compact tag-skeleton of the tree for assertions.
func shape(n *tree.Node) string {
	var b strings.Builder
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		b.WriteString(string(n.Tag))
		if len(n.Kids) > 0 {
			b.WriteByte('(')
			for i, k := range n.Kids {
				if i > 0 {
					b.WriteByte(',')
				}
				walk(k)
			}
			b.WriteByte(')')
		}
	}
	walk(n)
	return b.String()
}

func firstStmt(t *testing.T, src string) *tree.Node {
	t.Helper()
	mod := parseOK(t, src)
	stmts := ListElems(mod.Kids[0])
	if len(stmts) == 0 {
		t.Fatalf("no statements in %q", src)
	}
	return stmts[0]
}

func TestParseAssignment(t *testing.T) {
	s := firstStmt(t, "x = 1 + 2 * 3\n")
	if got := shape(s); got != "Assign(Name,BinOp(NumInt,BinOp(NumInt,NumInt)))" {
		t.Errorf("shape = %s", got)
	}
}

func TestParsePrecedenceAndAssociativity(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x = 1 - 2 - 3\n", "Assign(Name,BinOp(BinOp(NumInt,NumInt),NumInt))"},
		{"x = (1 - 2) - 3\n", "Assign(Name,BinOp(BinOp(NumInt,NumInt),NumInt))"},
		{"x = 1 - (2 - 3)\n", "Assign(Name,BinOp(NumInt,BinOp(NumInt,NumInt)))"},
		{"x = 2 ** 3 ** 4\n", "Assign(Name,BinOp(NumInt,BinOp(NumInt,NumInt)))"},
		{"x = -y ** 2\n", "Assign(Name,UnaryOp(BinOp(Name,NumInt)))"},
		{"x = a or b and not c\n", "Assign(Name,BoolOp(Name,BoolOp(Name,UnaryOp(Name))))"},
		{"x = a < b == c\n", "Assign(Name,Compare(Compare(Name,Name),Name))"},
		{"x = a * b + c / d\n", "Assign(Name,BinOp(BinOp(Name,Name),BinOp(Name,Name)))"},
	}
	for _, c := range cases {
		if got := shape(firstStmt(t, c.src)); got != c.want {
			t.Errorf("%q: shape = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseTrailers(t *testing.T) {
	s := firstStmt(t, "v = obj.attr.method(a, b=1)[2][1:3]\n")
	want := "Assign(Name,Subscript(Subscript(Call(Attribute(Attribute(Name)),ExprCons(Name,ExprCons(KwArg(NumInt),ExprNil))),NumInt),Slice(NumInt,NumInt)))"
	if got := shape(s); got != want {
		t.Errorf("shape = %s\nwant    %s", got, want)
	}
}

func TestParseOpenSlices(t *testing.T) {
	cases := []struct{ src, want string }{
		{"v = x[:]\n", "Assign(Name,Subscript(Name,Slice(None,None)))"},
		{"v = x[1:]\n", "Assign(Name,Subscript(Name,Slice(NumInt,None)))"},
		{"v = x[:2]\n", "Assign(Name,Subscript(Name,Slice(None,NumInt)))"},
	}
	for _, c := range cases {
		if got := shape(firstStmt(t, c.src)); got != c.want {
			t.Errorf("%q: shape = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseFuncDef(t *testing.T) {
	src := `def add(a, b=1, c=None):
    total = a + b
    return total
`
	s := firstStmt(t, src)
	if s.Tag != TagFuncDef || s.Lits[0] != "add" {
		t.Fatalf("not a funcdef: %s", shape(s))
	}
	params := ListElems(s.Kids[0])
	if len(params) != 3 || params[0].Tag != TagParam || params[1].Tag != TagDefaultParam {
		t.Errorf("params = %v", shape(s.Kids[0]))
	}
	body := ListElems(s.Kids[1])
	if len(body) != 2 || body[1].Tag != TagReturn {
		t.Errorf("body shape wrong")
	}
}

func TestParseFuncDefAnnotationDiscarded(t *testing.T) {
	s := firstStmt(t, "def f(x) -> int:\n    return x\n")
	if s.Tag != TagFuncDef {
		t.Fatalf("shape = %s", shape(s))
	}
}

func TestParseClassDef(t *testing.T) {
	src := `class Layer(Base, mixins.Mixin):
    def __init__(self):
        self.built = False
`
	s := firstStmt(t, src)
	if s.Tag != TagClassDef || s.Lits[0] != "Layer" {
		t.Fatalf("not a classdef")
	}
	bases := ListElems(s.Kids[0])
	if len(bases) != 2 || bases[1].Tag != TagAttribute {
		t.Errorf("bases = %s", shape(s.Kids[0]))
	}
	body := ListElems(s.Kids[1])
	if len(body) != 1 || body[0].Tag != TagFuncDef {
		t.Errorf("class body wrong")
	}
}

func TestParseIfElifElse(t *testing.T) {
	src := `if a:
    x = 1
elif b:
    x = 2
elif c:
    x = 3
else:
    x = 4
`
	s := firstStmt(t, src)
	// elif desugars to a nested If inside orelse.
	if s.Tag != TagIf {
		t.Fatal("not an if")
	}
	level2 := ListElems(s.Kids[2])
	if len(level2) != 1 || level2[0].Tag != TagIf {
		t.Fatalf("first elif not desugared: %s", shape(s))
	}
	level3 := ListElems(level2[0].Kids[2])
	if len(level3) != 1 || level3[0].Tag != TagIf {
		t.Fatalf("second elif not desugared")
	}
	final := ListElems(level3[0].Kids[2])
	if len(final) != 1 || final[0].Tag != TagAssign {
		t.Fatalf("else branch wrong")
	}
}

func TestParseLoops(t *testing.T) {
	src := `for i, v in enumerate(xs):
    if v < 0:
        break
    continue
while not done:
    step()
`
	mod := parseOK(t, src)
	stmts := ListElems(mod.Kids[0])
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if stmts[0].Tag != TagFor || stmts[0].Kids[0].Tag != TagTupleLit {
		t.Errorf("for target should be a tuple: %s", shape(stmts[0]))
	}
	if stmts[1].Tag != TagWhile || stmts[1].Kids[0].Tag != TagUnaryOp {
		t.Errorf("while shape: %s", shape(stmts[1]))
	}
}

func TestParseImports(t *testing.T) {
	src := "import os.path\nfrom keras.layers import Dense, Conv2D\n"
	mod := parseOK(t, src)
	stmts := ListElems(mod.Kids[0])
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d, want 3 (multi-import expands)", len(stmts))
	}
	if stmts[0].Tag != TagImport || stmts[0].Lits[0] != "os.path" {
		t.Errorf("import = %v", stmts[0])
	}
	if stmts[1].Tag != TagFromImport || stmts[1].Lits[1] != "Dense" {
		t.Errorf("from-import 1 = %v", stmts[1])
	}
	if stmts[2].Lits[1] != "Conv2D" {
		t.Errorf("from-import 2 = %v", stmts[2])
	}
}

func TestParseCollections(t *testing.T) {
	cases := []struct{ src, want string }{
		{"v = []\n", "Assign(Name,ListLit(ExprNil))"},
		{"v = [1, 2]\n", "Assign(Name,ListLit(ExprCons(NumInt,ExprCons(NumInt,ExprNil))))"},
		{"v = ()\n", "Assign(Name,TupleLit(ExprNil))"},
		{"v = (1,)\n", "Assign(Name,TupleLit(ExprCons(NumInt,ExprNil)))"},
		{"v = (1, 2)\n", "Assign(Name,TupleLit(ExprCons(NumInt,ExprCons(NumInt,ExprNil))))"},
		{"v = (1)\n", "Assign(Name,NumInt)"},
		{"v = {}\n", "Assign(Name,DictLit(KVNil))"},
		{"v = {1: 2, 'a': b}\n", "Assign(Name,DictLit(KVCons(KV(NumInt,NumInt),KVCons(KV(Str,Name),KVNil))))"},
		{"v = 1, 2\n", "Assign(Name,TupleLit(ExprCons(NumInt,ExprCons(NumInt,ExprNil))))"},
	}
	for _, c := range cases {
		if got := shape(firstStmt(t, c.src)); got != c.want {
			t.Errorf("%q: shape = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseCompareKeywords(t *testing.T) {
	cases := []struct {
		src string
		op  string
	}{
		{"v = a in b\n", "in"},
		{"v = a not in b\n", "not in"},
		{"v = a is b\n", "is"},
		{"v = a is not b\n", "is not"},
	}
	for _, c := range cases {
		s := firstStmt(t, c.src)
		cmp := s.Kids[1]
		if cmp.Tag != TagCompare || cmp.Lits[0] != c.op {
			t.Errorf("%q: got %s %v", c.src, cmp.Tag, cmp.Lits)
		}
	}
}

func TestParseSemicolonsAndAug(t *testing.T) {
	mod := parseOK(t, "x = 1; y += 2; z **= 3\n")
	stmts := ListElems(mod.Kids[0])
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if stmts[1].Tag != TagAugAssign || stmts[1].Lits[0] != "+" {
		t.Errorf("aug = %v", stmts[1])
	}
	if stmts[2].Lits[0] != "**" {
		t.Errorf("aug ** = %v", stmts[2])
	}
}

func TestParseReturnVariants(t *testing.T) {
	mod := parseOK(t, "def f():\n    return\ndef g():\n    return 1, 2\n")
	stmts := ListElems(mod.Kids[0])
	r1 := ListElems(stmts[0].Kids[1])[0]
	if r1.Tag != TagReturn || r1.Kids[0].Tag != TagNone {
		t.Errorf("bare return = %s", shape(r1))
	}
	r2 := ListElems(stmts[1].Kids[1])[0]
	if r2.Kids[0].Tag != TagTupleLit {
		t.Errorf("tuple return = %s", shape(r2))
	}
}

func TestParseSingleLineSuite(t *testing.T) {
	s := firstStmt(t, "if x: y = 1\n")
	body := ListElems(s.Kids[1])
	if len(body) != 1 || body[0].Tag != TagAssign {
		t.Errorf("single-line suite = %s", shape(s))
	}
}

func TestParseStringConcat(t *testing.T) {
	s := firstStmt(t, `v = "a" 'b' "c"`+"\n")
	if s.Kids[1].Tag != TagStr || s.Kids[1].Lits[0] != "abc" {
		t.Errorf("adjacent strings: %v", s.Kids[1].Lits)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"def f(:\n    pass\n",
		"x = \n",
		"if x\n    pass\n",
		"class :\n    pass\n",
		"x = 1 +\n",
		"def f():\n",            // empty suite (EOF)
		"for in y:\n    pass\n", // missing target
		"return 1\nx (\n",       // unclosed call hits EOF
	}
	for _, src := range bad {
		if _, _, err := ParseNew(src); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestParseChainedAssignment(t *testing.T) {
	mod := parseOK(t, "a = b = f(1)\n")
	stmts := ListElems(mod.Kids[0])
	if len(stmts) != 2 {
		t.Fatalf("chained assignment should desugar into 2 statements, got %d", len(stmts))
	}
	for i, st := range stmts {
		if st.Tag != TagAssign {
			t.Errorf("stmt %d tag = %s", i, st.Tag)
		}
		if st.Kids[1].Tag != TagCall {
			t.Errorf("stmt %d value = %s", i, st.Kids[1].Tag)
		}
	}
	if !tree.Equal(stmts[0].Kids[1], stmts[1].Kids[1]) {
		t.Error("both assignments should carry equal copies of the value")
	}
	if stmts[0].Kids[1] == stmts[1].Kids[1] {
		t.Error("the value copies must be distinct node objects")
	}
}

// TestParseCRLF requires a module with CR LF line ends, blank lines
// included, to parse to the same tags, literals and digests as its LF twin.
func TestParseCRLF(t *testing.T) {
	for _, lf := range []string{
		"x = 1\n\ny = 2\n",
		"def f():\n    return 1\n\nx = 2\n",
		"class A:\n    \n    def f(self):\n        pass\n  \n    # c\n\n    x = 1\n",
		sampleSource,
	} {
		crlf := strings.ReplaceAll(lf, "\n", "\r\n")
		want, _, err := ParseNew(lf)
		if err != nil {
			t.Fatalf("%q: %v", lf, err)
		}
		got, _, err := ParseNew(crlf)
		if err != nil {
			t.Fatalf("%q: %v", crlf, err)
		}
		if !tree.Equal(got, want) || got.ExactHash() != want.ExactHash() {
			t.Errorf("%q parses to\n%s\nbut its LF twin to\n%s", crlf, got, want)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, _, err := ParseNew("x = 1\ny = *\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "2:") {
		t.Errorf("error should include position: %v", pe)
	}
}

func TestParsedTreeIsWellTyped(t *testing.T) {
	src := sampleSource
	mod, f, err := ParseNew(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must conform to the schema; construction already enforces
	// this, so just sanity-check sorts of the root.
	if srt, _ := f.Schema().ResultSort(mod.Tag); srt != SortModule {
		t.Errorf("root sort = %s", srt)
	}
	if mod.Size() < 80 {
		t.Errorf("sample module too small: %d nodes", mod.Size())
	}
}

func TestListElems(t *testing.T) {
	f := NewFactory()
	l := f.StmtList(f.Pass(), f.Break(), f.Continue())
	elems := ListElems(l)
	if len(elems) != 3 || elems[0].Tag != TagPass || elems[2].Tag != TagContinue {
		t.Errorf("ListElems = %v", elems)
	}
	if got := ListElems(f.StmtList()); len(got) != 0 {
		t.Errorf("empty list should flatten to nothing")
	}
	if got := ListElems(f.Pass()); len(got) != 0 {
		t.Errorf("non-list node should flatten to nothing")
	}
}

// sampleSource is a realistic module exercising most constructs; shared
// with the renderer round-trip tests.
const sampleSource = `import os
import numpy.linalg
from keras.layers import Dense, Dropout

EPSILON = 1e-7
NAMES = ["input", "hidden", "output"]

class Layer(Base):
    def __init__(self, units, activation=None, use_bias=True):
        self.units = units
        self.activation = activation
        self.use_bias = use_bias
        self.weights = {}

    def build(self, shape):
        if self.built:
            return
        self.kernel = self.add_weight("kernel", shape[1:], init="glorot")
        if self.use_bias:
            self.bias = self.add_weight("bias", (self.units,), init="zeros")
        self.built = True

    def call(self, inputs, training=False):
        outputs = matmul(inputs, self.kernel)
        if self.use_bias:
            outputs += self.bias
        if self.activation is not None and training:
            outputs = self.activation(outputs)
        return outputs

def clip(x, lo=0.0, hi=1.0):
    if x < lo:
        return lo
    elif x > hi:
        return hi
    else:
        return x

def summarize(layers):
    total = 0
    for i, layer in enumerate(layers):
        params = layer.count_params()
        total += params
        print("layer %d" % i, params)
    while total > 0 and len(layers) > 1:
        total = total // 2
    return total, len(layers)
`

func TestParseSample(t *testing.T) {
	mod := parseOK(t, sampleSource)
	stmts := ListElems(mod.Kids[0])
	// 3 imports expand to 4 statements + EPSILON + NAMES + class + 2 defs.
	if len(stmts) != 9 {
		t.Fatalf("top-level statements = %d, want 9", len(stmts))
	}
	tags := []sig.Tag{TagImport, TagImport, TagFromImport, TagFromImport,
		TagAssign, TagAssign, TagClassDef, TagFuncDef, TagFuncDef}
	for i, want := range tags {
		if stmts[i].Tag != want {
			t.Errorf("stmt %d tag = %s, want %s", i, stmts[i].Tag, want)
		}
	}
}
