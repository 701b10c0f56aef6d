package tree_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// FuzzDecodeSExpr feeds arbitrary text to the S-expression decoder, which
// diffd runs on every uploaded tree. Decoding must never panic, and any
// input it accepts must re-encode to text that decodes to an equal tree.
// The schema is exp's plus a bool and a float tag, so every literal kind
// the format knows is reachable.
func FuzzDecodeSExpr(f *testing.F) {
	for _, seed := range []string{
		// Encodings of the codec tests' trees.
		`(Num 42)`,
		`(Var "hello world")`,
		`(Var "quote \" and \\ backslash")`,
		`(Flag #t)`,
		`(Flag #f)`,
		`(F 2.5)`,
		`(F 100.0)`,
		`(F NaN)`,
		`(F +Inf)`,
		`(F -Inf)`,
		`(F -0.0)`,
		`(Add (Sub (Var "a") (Num -7)) (Add (Num 0) (Var "b")))`,
		`(Let "x" (Num 1) (Call "f" (Var "x")))`,
		"\n  ( Add\t(Var \"x\")\n (Num 3) )  \n",
		// The codec tests' malformed inputs.
		``,
		`Add`,
		`(`,
		`()`,
		`(Add (Var "a"))`,
		`(Nope)`,
		`(Num 1) trailing`,
		`(Var "unterminated)`,
		`(Num zzz)`,
		`(Flag #x)`,
		`(Add (Var "a") (Num 1)`,
	} {
		f.Add(seed)
	}
	// A schema of its own: exp's shared instance must not be declared into.
	sch := sig.NewSchema("exp+lits")
	for _, tag := range exp.Schema().Tags() {
		if tag != sig.RootTag {
			sch.MustDeclare(*exp.Schema().Lookup(tag))
		}
	}
	sch.MustDeclare(sig.Sig{Tag: "Flag", Lits: []sig.LitSpec{{Link: "b", Type: sig.BoolLit}}, Result: exp.Exp})
	sch.MustDeclare(sig.Sig{Tag: "F", Lits: []sig.LitSpec{{Link: "v", Type: sig.FloatLit}}, Result: exp.Exp})
	f.Fuzz(func(t *testing.T, src string) {
		n, err := tree.DecodeSExpr(src, sch, uri.NewAllocator())
		if err != nil {
			return
		}
		enc := tree.EncodeSExpr(n)
		back, err := tree.DecodeSExpr(enc, sch, uri.NewAllocator())
		if err != nil {
			t.Fatalf("re-encoding of accepted input %q does not decode: %v\nencoded: %q", src, err, enc)
		}
		if !tree.Equal(n, back) {
			t.Fatalf("round trip changed the tree decoded from %q:\nfirst  %s\nsecond %s", src, n, back)
		}
	})
}
