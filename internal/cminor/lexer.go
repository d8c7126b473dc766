package cminor

import (
	"strconv"
	"strings"
)

// Lexer turns CMinor source text into tokens. It handles // and /* */
// comments, decimal/hex/octal integer literals, character literals with
// the common escapes, and adjacent-string-literal concatenation is left
// to the parser (not needed by our corpus).
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
	errs []*Error
}

// NewLexer returns a lexer over src; file is used in positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the diagnostics accumulated so far.
func (lx *Lexer) Errors() []*Error { return lx.errs }

// errorf records a diagnostic, keeping at most 100 so that hostile
// input cannot make the list outgrow the input.
func (lx *Lexer) errorf(pos Pos, format string, args ...interface{}) {
	if len(lx.errs) < 100 {
		lx.errs = append(lx.errs, errf(pos, format, args...))
	}
}

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekByte2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekByte2() == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekByte2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekByte2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(start, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor lines (e.g. #include) are skipped wholesale;
			// CMinor programs declare their externs directly.
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, consuming it.
func (lx *Lexer) Next() Token {
	// Unexpected characters are reported and skipped by jumping back
	// here: recursing instead would take a stack frame per character.
retry:
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}
	case isDigit(c):
		start := lx.off
		if c == '0' && (lx.peekByte2() == 'x' || lx.peekByte2() == 'X') {
			lx.advance()
			lx.advance()
			for lx.off < len(lx.src) && isHexDigit(lx.peekByte()) {
				lx.advance()
			}
		} else {
			for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
		// Integer suffixes (u, l, ul, ...) are accepted and ignored.
		for lx.off < len(lx.src) {
			s := lx.peekByte()
			if s == 'u' || s == 'U' || s == 'l' || s == 'L' {
				lx.advance()
			} else {
				break
			}
		}
		text := lx.src[start:lx.off]
		numText := strings.TrimRight(text, "uUlL")
		v, err := strconv.ParseInt(numText, 0, 64)
		if err != nil {
			// Tolerate overflow of huge constants; value is irrelevant
			// to the region analysis.
			u, uerr := strconv.ParseUint(numText, 0, 64)
			if uerr != nil {
				lx.errorf(pos, "bad integer literal %q", text)
			}
			v = int64(u)
		}
		return Token{Kind: INTLIT, Text: text, Val: v, Pos: pos}
	case c == '\'':
		lx.advance()
		var v int64
		if lx.peekByte() == '\\' {
			lx.advance()
			if lx.off < len(lx.src) {
				v = int64(unescape(lx.advance()))
			}
		} else if lx.off < len(lx.src) {
			v = int64(lx.advance())
		}
		if lx.peekByte() == '\'' {
			lx.advance()
		} else {
			lx.errorf(pos, "unterminated char literal")
		}
		return Token{Kind: CHARLIT, Val: v, Pos: pos}
	case c == '"':
		lx.advance()
		var sb strings.Builder
		for lx.off < len(lx.src) && lx.peekByte() != '"' {
			ch := lx.advance()
			if ch == '\\' && lx.off < len(lx.src) {
				sb.WriteByte(unescape(lx.advance()))
			} else {
				sb.WriteByte(ch)
			}
		}
		if lx.off < len(lx.src) {
			lx.advance() // closing quote
		} else {
			lx.errorf(pos, "unterminated string literal")
		}
		return Token{Kind: STRLIT, Text: sb.String(), Pos: pos}
	}
	// Operators and punctuation.
	lx.advance()
	two := func(next byte, k2, k1 Kind) Token {
		if lx.peekByte() == next {
			lx.advance()
			return Token{Kind: k2, Pos: pos}
		}
		return Token{Kind: k1, Pos: pos}
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Pos: pos}
	case ')':
		return Token{Kind: RParen, Pos: pos}
	case '{':
		return Token{Kind: LBrace, Pos: pos}
	case '}':
		return Token{Kind: RBrace, Pos: pos}
	case '[':
		return Token{Kind: LBrack, Pos: pos}
	case ']':
		return Token{Kind: RBrack, Pos: pos}
	case ';':
		return Token{Kind: Semi, Pos: pos}
	case ',':
		return Token{Kind: Comma, Pos: pos}
	case '.':
		if lx.peekByte() == '.' && lx.peekByte2() == '.' {
			lx.advance()
			lx.advance()
			return Token{Kind: Ellipsis, Pos: pos}
		}
		return Token{Kind: Dot, Pos: pos}
	case '*':
		return Token{Kind: Star, Pos: pos}
	case '+':
		if lx.peekByte() == '+' {
			lx.advance()
			return Token{Kind: Inc, Pos: pos}
		}
		return two('=', PlusAssign, Plus)
	case '-':
		if lx.peekByte() == '>' {
			lx.advance()
			return Token{Kind: Arrow, Pos: pos}
		}
		if lx.peekByte() == '-' {
			lx.advance()
			return Token{Kind: Dec, Pos: pos}
		}
		return two('=', MinusAssign, Minus)
	case '/':
		return Token{Kind: Slash, Pos: pos}
	case '%':
		return Token{Kind: Percent, Pos: pos}
	case '&':
		return two('&', AndAnd, Amp)
	case '|':
		return two('|', OrOr, Pipe)
	case '^':
		return Token{Kind: Caret, Pos: pos}
	case '~':
		return Token{Kind: Tilde, Pos: pos}
	case '!':
		return two('=', Neq, Not)
	case '=':
		return two('=', Eq, Assign)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '?':
		return Token{Kind: Question, Pos: pos}
	case ':':
		return Token{Kind: Colon, Pos: pos}
	}
	lx.errorf(pos, "unexpected character %q", string(c))
	goto retry
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return c
}

// Tokenize lexes the whole input (testing convenience).
func Tokenize(file, src string) ([]Token, []*Error) {
	lx := NewLexer(file, src)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, lx.errs
		}
	}
}
