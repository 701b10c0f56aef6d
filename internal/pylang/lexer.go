package pylang

import (
	"fmt"
	"strings"
)

// TokKind classifies lexical tokens.
type TokKind uint8

// Token kinds produced by the lexer.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIndent
	TokDedent
	TokName
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokOp // operators and punctuation
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokNewline:
		return "NEWLINE"
	case TokIndent:
		return "INDENT"
	case TokDedent:
		return "DEDENT"
	case TokName:
		return "NAME"
	case TokKeyword:
		return "KEYWORD"
	case TokInt:
		return "INT"
	case TokFloat:
		return "FLOAT"
	case TokString:
		return "STRING"
	case TokOp:
		return "OP"
	default:
		return fmt.Sprintf("TokKind(%d)", uint8(k))
	}
}

// Token is one lexical token with its source position: Line and Col are
// 1-based, and Off is the byte offset of the token's first byte. INDENT and
// DEDENT tokens sit at the start of the line that opens or closes the
// block; DEDENTs closing blocks at the end of input, and EOF, sit at
// len(src).
type Token struct {
	Kind TokKind
	Text string // for strings: the decoded value
	Line int
	Col  int
	Off  int
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

var keywords = map[string]bool{
	"def": true, "class": true, "return": true, "if": true, "elif": true,
	"else": true, "while": true, "for": true, "in": true, "pass": true,
	"break": true, "continue": true, "import": true, "from": true,
	"and": true, "or": true, "not": true, "True": true, "False": true,
	"None": true, "raise": true, "is": true,
	"try": true, "except": true, "finally": true, "with": true, "as": true,
	"assert": true, "del": true, "global": true, "nonlocal": true,
	"yield": true, "lambda": true,
}

// multi-character operators, longest first.
var multiOps = []string{
	"**=", "//=", "==", "!=", "<=", ">=", "->", "+=", "-=", "*=", "/=", "%=",
	"**", "//",
}

// multiOpStarts holds every first byte of a multi-character operator.
const multiOpStarts = "*/=!<>-+%"

const singleOps = "+-*/%()[]{}:,.<>=@;"

// LexError reports a lexical error with its position.
type LexError struct {
	Line, Col int
	Msg       string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("pylang: lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lex tokenizes Python source, handling comments, blank lines, line
// continuation inside brackets, and indentation (INDENT/DEDENT tokens).
// Tabs in indentation count as 8 columns, like CPython's tokenizer.
func Lex(src string) ([]Token, error) {
	// Python source averages three to four bytes per token; sizing the
	// slice once for three spares the appends' regrowth.
	l := &lexer{src: src, line: 1, col: 1, indents: []int{0}, toks: make([]Token, 0, len(src)/3+8)}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

type lexer struct {
	src     string
	pos     int
	line    int
	col     int
	indents []int
	nesting int // bracket depth: newlines inside brackets are ignored
	toks    []Token
	started bool // a logical line has content
}

func (l *lexer) errf(format string, args ...any) error {
	return &LexError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) emit(kind TokKind, text string, line, col, off int) {
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Line: line, Col: col, Off: off})
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		if !l.started && l.nesting == 0 {
			if done, err := l.handleIndentation(); err != nil {
				return err
			} else if done {
				continue
			}
		}
		c := l.peek()
		switch {
		case c == '\n':
			l.advance()
			if l.nesting > 0 {
				continue // implicit line joining inside brackets
			}
			if l.started {
				l.emit(TokNewline, "\n", l.line-1, l.col, l.pos-1)
				l.started = false
			}
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '\\' && l.peek2() == '\n':
			l.advance()
			l.advance()
		case isNameStart(c):
			l.lexName()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return err
			}
		case c == '.' && l.peek2() >= '0' && l.peek2() <= '9':
			if err := l.lexNumber(); err != nil {
				return err
			}
		case c == '"' || c == '\'':
			if err := l.lexString(); err != nil {
				return err
			}
		default:
			if err := l.lexOp(); err != nil {
				return err
			}
		}
	}
	if l.started {
		l.emit(TokNewline, "\n", l.line, l.col, l.pos)
	}
	for len(l.indents) > 1 {
		l.indents = l.indents[:len(l.indents)-1]
		l.emit(TokDedent, "", l.line, l.col, l.pos)
	}
	l.emit(TokEOF, "", l.line, l.col, l.pos)
	return nil
}

// handleIndentation measures the leading whitespace of a fresh logical line
// and emits INDENT/DEDENT tokens. It reports true if the line turned out to
// be blank or a comment (and was consumed). A line ending in CR LF is blank
// when nothing but whitespace precedes the CR.
func (l *lexer) handleIndentation() (bool, error) {
	width := 0
	start := l.pos
	for l.pos < len(l.src) {
		c := l.peek()
		if c == ' ' {
			width++
			l.advance()
		} else if c == '\t' {
			width = (width/8 + 1) * 8
			l.advance()
		} else {
			break
		}
	}
	c := l.peek()
	if c == '\n' || c == '#' || (c == '\r' && l.peek2() == '\n') || l.pos >= len(l.src) {
		// Blank or comment-only line: consume to end of line, no tokens.
		for l.pos < len(l.src) && l.peek() != '\n' {
			l.advance()
		}
		if l.pos < len(l.src) {
			l.advance()
		}
		return true, nil
	}
	cur := l.indents[len(l.indents)-1]
	switch {
	case width > cur:
		l.indents = append(l.indents, width)
		l.emit(TokIndent, l.src[start:l.pos], l.line, 1, start)
	case width < cur:
		for len(l.indents) > 1 && l.indents[len(l.indents)-1] > width {
			l.indents = l.indents[:len(l.indents)-1]
			l.emit(TokDedent, "", l.line, 1, start)
		}
		if l.indents[len(l.indents)-1] != width {
			return false, l.errf("inconsistent dedent to width %d", width)
		}
	}
	l.started = true
	return false, nil
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameCont(c byte) bool {
	return isNameStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexName() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && isNameCont(l.peek()) {
		l.advance()
	}
	word := l.src[start:l.pos]
	kind := TokName
	if keywords[word] {
		kind = TokKeyword
	}
	l.emit(kind, word, line, col, start)
	l.started = true
}

func (l *lexer) lexNumber() error {
	line, col := l.line, l.col
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.peek()
		if c >= '0' && c <= '9' {
			l.advance()
		} else if c == '.' && !isFloat && !(l.peek2() == '.') {
			isFloat = true
			l.advance()
		} else if (c == 'e' || c == 'E') && l.pos > start {
			// exponent: e[+-]?digits
			save := l.pos
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if l.peek() < '0' || l.peek() > '9' {
				l.pos = save
				break
			}
			isFloat = true
		} else {
			break
		}
	}
	text := l.src[start:l.pos]
	if isNameStart(l.peek()) {
		return l.errf("invalid number literal %q", text+string(l.peek()))
	}
	if isFloat {
		l.emit(TokFloat, text, line, col, start)
	} else {
		l.emit(TokInt, text, line, col, start)
	}
	l.started = true
	return nil
}

func (l *lexer) lexString() error {
	line, col, start := l.line, l.col, l.pos
	quote := l.advance()
	triple := false
	if l.peek() == quote && l.peek2() == quote {
		l.advance()
		l.advance()
		triple = true
	}
	// The value is a slice of the source until an escape needs decoding;
	// from then on it is built in b.
	body, end := l.pos, 0
	var b strings.Builder
	escaped := false
	for {
		if l.pos >= len(l.src) {
			return l.errf("unterminated string")
		}
		c := l.peek()
		if c == '\\' {
			if !escaped {
				b.WriteString(l.src[body:l.pos])
				escaped = true
			}
			l.advance()
			if l.pos >= len(l.src) {
				return l.errf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '\'':
				b.WriteByte('\'')
			case '"':
				b.WriteByte('"')
			case '0':
				b.WriteByte(0)
			case '\n':
				// line continuation inside a string
			default:
				b.WriteByte('\\')
				b.WriteByte(e)
			}
			continue
		}
		if !triple && c == quote {
			end = l.pos
			l.advance()
			break
		}
		if triple && c == quote && l.peek2() == quote && l.pos+2 < len(l.src) && l.src[l.pos+2] == quote {
			end = l.pos
			l.advance()
			l.advance()
			l.advance()
			break
		}
		if !triple && c == '\n' {
			return l.errf("newline in string literal")
		}
		l.advance()
		if escaped {
			b.WriteByte(c)
		}
	}
	text := l.src[body:end]
	if escaped {
		text = b.String()
	}
	l.emit(TokString, text, line, col, start)
	l.started = true
	return nil
}

func (l *lexer) lexOp() error {
	line, col, start := l.line, l.col, l.pos
	c := l.peek()
	if strings.IndexByte(multiOpStarts, c) >= 0 {
		rest := l.src[l.pos:]
		for _, op := range multiOps {
			if strings.HasPrefix(rest, op) {
				for range op {
					l.advance()
				}
				l.emit(TokOp, op, line, col, start)
				l.started = true
				return nil
			}
		}
	}
	if strings.IndexByte(singleOps, c) < 0 && c != '!' {
		return l.errf("unexpected character %q", string(c))
	}
	if c == '!' {
		return l.errf("unexpected character '!' (did you mean '!=' ?)")
	}
	l.advance()
	switch c {
	case '(', '[', '{':
		l.nesting++
	case ')', ']', '}':
		if l.nesting > 0 {
			l.nesting--
		}
	}
	l.emit(TokOp, l.src[start:l.pos], line, col, start)
	l.started = true
	return nil
}
