package tree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sig"
	"repro/internal/uri"
)

func boolSchema() *sig.Schema {
	s := testSchema()
	s.MustDeclare(sig.Sig{Tag: "Flag", Lits: []sig.LitSpec{{Link: "b", Type: sig.BoolLit}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "F", Lits: []sig.LitSpec{{Link: "v", Type: sig.FloatLit}}, Result: "Exp"})
	return s
}

func TestSExprRoundTrip(t *testing.T) {
	sch := boolSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	trees := []*Node{
		b.MustN("Num", 42),
		b.MustN("Var", "hello world"),
		b.MustN("Var", `quote " and \ backslash`),
		b.MustN("Flag", true),
		b.MustN("Flag", false),
		b.MustN("F", 2.5),
		b.MustN("F", 100.0),
		b.MustN("Add",
			b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Num", -7)),
			b.MustN("Add", b.MustN("Num", 0), b.MustN("Var", "b"))),
	}
	for _, orig := range trees {
		enc := EncodeSExpr(orig)
		back, err := DecodeSExpr(enc, sch, alloc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !Equal(orig, back) {
			t.Fatalf("round trip changed tree: %q\norig %s\nback %s", enc, orig, back)
		}
	}
}

// Special float values must survive the text format: NaN and ±Inf format
// as words (no ".0" marker, which would make them unparseable) and -0
// must keep its sign. Equality here is LitEqual-based, so a NaN that came
// back as a different value would fail.
func TestSExprRoundTripSpecialFloats(t *testing.T) {
	sch := boolSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		orig := b.MustN("F", v)
		enc := EncodeSExpr(orig)
		back, err := DecodeSExpr(enc, sch, alloc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !Equal(orig, back) {
			t.Fatalf("round trip changed value: %q decoded to %#v", enc, back.Lits[0])
		}
	}
}

func TestSExprFormat(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	tr := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 1))
	if got := EncodeSExpr(tr); got != `(Add (Var "a") (Num 1))` {
		t.Errorf("sexpr = %q", got)
	}
}

func TestSExprDecodeWhitespace(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	n, err := DecodeSExpr("\n  ( Add\t(Var \"x\")\n (Num 3) )  \n", sch, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tag != "Add" || n.Kids[1].Lits[0] != int64(3) {
		t.Errorf("decoded %s", n)
	}
}

func TestSExprDecodeErrors(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	bad := []string{
		"",
		"Add",
		"(",
		"()",
		"(Add (Var \"a\"))",        // arity error from schema
		"(Nope)",                   // undeclared tag
		"(Num 1) trailing",         // trailing input
		"(Var \"unterminated)",     // unterminated string
		"(Num zzz)",                // bad literal
		"(Flag #x)",                // bad boolean (undeclared tag too)
		"(Add (Var \"a\") (Num 1)", // unterminated tree
	}
	for _, src := range bad {
		if _, err := DecodeSExpr(src, sch, alloc); err == nil {
			t.Errorf("decode %q should fail", src)
		}
	}
}

// TestSExprDepthBound: the decoder accepts a tree nested exactly
// MaxSExprDepth levels deep and rejects one a level deeper, which would
// otherwise recurse until the stack overflows.
func TestSExprDepthBound(t *testing.T) {
	sch := testSchema()
	chain := func(depth int) string {
		return strings.Repeat("(Add ", depth-1) + "(Num 0)" + strings.Repeat(" (Num 0))", depth-1)
	}
	n, err := DecodeSExpr(chain(MaxSExprDepth), sch, uri.NewAllocator())
	if err != nil {
		t.Fatalf("decode at the bound: %v", err)
	}
	if got := n.Height() + 1; got != MaxSExprDepth { // a leaf has height 0
		t.Fatalf("decoded %d levels, want %d", got, MaxSExprDepth)
	}
	_, err = DecodeSExpr(chain(MaxSExprDepth+1), sch, uri.NewAllocator())
	if err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("decode past the bound = %v, want a depth error", err)
	}
}

func TestEncodeDOT(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	tr := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 1))
	dot := EncodeDOT(tr, sch, map[uri.URI]bool{tr.Kids[0].URI: true})
	for _, want := range []string{"digraph tree", "Add", "label=\"e1\"", "label=\"e2\"", "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot lacks %q:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "->") != 2 {
		t.Errorf("edges = %d, want 2", strings.Count(dot, "->"))
	}
}
