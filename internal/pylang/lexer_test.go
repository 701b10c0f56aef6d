package pylang

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func lexOK(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks
}

func TestLexSimpleLine(t *testing.T) {
	toks := lexOK(t, "x = 1 + 2\n")
	want := []TokKind{TokName, TokOp, TokInt, TokOp, TokInt, TokNewline, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
	if toks[0].Text != "x" || toks[2].Text != "1" {
		t.Errorf("texts wrong: %v", toks)
	}
}

func TestLexIndentation(t *testing.T) {
	src := "if x:\n    y = 1\n    z = 2\nreturn\n"
	toks := lexOK(t, src)
	var indents, dedents int
	for _, tok := range toks {
		switch tok.Kind {
		case TokIndent:
			indents++
		case TokDedent:
			dedents++
		}
	}
	if indents != 1 || dedents != 1 {
		t.Errorf("indents/dedents = %d/%d, want 1/1", indents, dedents)
	}
}

func TestLexNestedIndentationClosesAtEOF(t *testing.T) {
	src := "def f():\n    if x:\n        return 1"
	toks := lexOK(t, src)
	dedents := 0
	for _, tok := range toks {
		if tok.Kind == TokDedent {
			dedents++
		}
	}
	if dedents != 2 {
		t.Errorf("dedents at EOF = %d, want 2", dedents)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("last token should be EOF")
	}
}

func TestLexBlankLinesAndComments(t *testing.T) {
	src := "x = 1\n\n# a comment\n   # indented comment\n\ny = 2  # trailing\n"
	toks := lexOK(t, src)
	names := 0
	for _, tok := range toks {
		if tok.Kind == TokName {
			names++
		}
		if tok.Kind == TokIndent || tok.Kind == TokDedent {
			t.Errorf("blank/comment lines must not affect indentation: %v", tok)
		}
	}
	if names != 2 {
		t.Errorf("names = %d, want 2", names)
	}
}

func TestLexImplicitLineJoining(t *testing.T) {
	src := "f(a,\n  b,\n  c)\n"
	toks := lexOK(t, src)
	for _, tok := range toks {
		if tok.Kind == TokIndent || tok.Kind == TokDedent {
			t.Errorf("no indentation tokens inside brackets: %v", tok)
		}
	}
	newlines := 0
	for _, tok := range toks {
		if tok.Kind == TokNewline {
			newlines++
		}
	}
	if newlines != 1 {
		t.Errorf("newlines = %d, want 1 (only after closing paren)", newlines)
	}
}

func TestLexBackslashContinuation(t *testing.T) {
	toks := lexOK(t, "x = 1 + \\\n    2\n")
	newlines := 0
	for _, tok := range toks {
		if tok.Kind == TokNewline {
			newlines++
		}
	}
	if newlines != 1 {
		t.Errorf("newlines = %d, want 1", newlines)
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexOK(t, "a = 42\nb = 3.14\nc = 1e5\nd = 2.5e-3\ne = .5\n")
	var ints, floats []string
	for _, tok := range toks {
		switch tok.Kind {
		case TokInt:
			ints = append(ints, tok.Text)
		case TokFloat:
			floats = append(floats, tok.Text)
		}
	}
	if len(ints) != 1 || ints[0] != "42" {
		t.Errorf("ints = %v", ints)
	}
	if len(floats) != 4 {
		t.Errorf("floats = %v", floats)
	}
	if _, err := Lex("x = 1abc\n"); err == nil {
		t.Error("1abc should be a lex error")
	}
}

func TestLexStrings(t *testing.T) {
	cases := []struct{ src, want string }{
		{`s = "hello"` + "\n", "hello"},
		{`s = 'it'` + "\n", "it"},
		{`s = "a\nb\t\"c\"\\"` + "\n", "a\nb\t\"c\"\\"},
		{"s = \"\"\"multi\nline\"\"\"\n", "multi\nline"},
		{"s = '''x'y'''\n", "x'y"},
	}
	for _, c := range cases {
		toks := lexOK(t, c.src)
		var got string
		found := false
		for _, tok := range toks {
			if tok.Kind == TokString {
				got = tok.Text
				found = true
			}
		}
		if !found || got != c.want {
			t.Errorf("lex %q: string = %q, want %q", c.src, got, c.want)
		}
	}
	if _, err := Lex("s = \"unterminated\n"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("s = \"unterminated"); err == nil {
		t.Error("unterminated string at EOF should fail")
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexOK(t, "a **= b // c != d <= e -> f\n")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokOp {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"**=", "//", "!=", "<=", "->"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestLexKeywordsVsNames(t *testing.T) {
	toks := lexOK(t, "define = defx\nif deffer:\n    pass\n")
	for _, tok := range toks {
		if tok.Kind == TokKeyword && tok.Text != "if" && tok.Text != "pass" {
			t.Errorf("non-keyword lexed as keyword: %v", tok)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("x = 1\n  y = 2\n dangling = 3\n"); err == nil {
		t.Error("inconsistent dedent should fail")
	}
	if _, err := Lex("x = $\n"); err == nil {
		t.Error("unexpected character should fail")
	}
	if _, err := Lex("x ! y\n"); err == nil {
		t.Error("bare ! should fail")
	}
	if _, err := Lex("x = \"a\\"); err == nil {
		t.Error("unterminated escape should fail")
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "a = 1\nbb = 22\n")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	var bb Token
	for _, tok := range toks {
		if tok.Text == "bb" {
			bb = tok
		}
	}
	if bb.Line != 2 || bb.Col != 1 {
		t.Errorf("bb at %d:%d, want 2:1", bb.Line, bb.Col)
	}
	lexErr, ok := func() (err error, _ bool) {
		_, err = Lex("x = $\n")
		return err, true
	}()
	_ = ok
	if le, ok := lexErr.(*LexError); !ok || le.Line != 1 || le.Col != 5 {
		t.Errorf("lex error position = %v", lexErr)
	}

	// Off is the byte offset of each token. INDENT and DEDENT sit at the
	// start of the line that opens or closes the block; DEDENTs at the end
	// of input, and EOF, sit at len(src).
	for _, c := range []struct {
		src  string
		offs []int
	}{
		// a = 1 NL if b : NL INDENT c = 2 NL DEDENT d = 'x' NL EOF
		{"a = 1\nif b:\n    c = 2\nd = 'x'\n", []int{0, 2, 4, 5, 6, 9, 10, 11, 12, 16, 18, 20, 21, 22, 22, 24, 26, 29, 30}},
		// def f ( ) : NL INDENT return 1 NL DEDENT EOF, no final newline
		{"def f():\n    return 1", []int{0, 4, 5, 6, 7, 8, 9, 13, 20, 21, 21, 21}},
		// x = 1 NL y NL EOF, across a CRLF blank line and a comment line
		{"x = 1\r\n\r\n# c\r\ny\r\n", []int{0, 2, 4, 6, 14, 16, 17}},
	} {
		toks := lexOK(t, c.src)
		if len(toks) != len(c.offs) {
			t.Errorf("%q: %d tokens, want %d: %v", c.src, len(toks), len(c.offs), toks)
			continue
		}
		for i, tok := range toks {
			if tok.Off != c.offs[i] {
				t.Errorf("%q: token %d %s at offset %d, want %d", c.src, i, tok, tok.Off, c.offs[i])
			}
		}
	}
}

func TestLexTabIndentation(t *testing.T) {
	src := "if x:\n\ty = 1\n\tz = 2\n"
	toks := lexOK(t, src)
	indents := 0
	for _, tok := range toks {
		if tok.Kind == TokIndent {
			indents++
		}
	}
	if indents != 1 {
		t.Errorf("tab indents = %d, want 1", indents)
	}
}
