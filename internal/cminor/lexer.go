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
	line int32
	// lineStart is the offset of the current line's first byte; a
	// token's column is its offset past it, plus one.
	lineStart int
	// strs holds the unescaped string literals, indexed by their
	// tokens' Val.
	strs []string
	errs []*Error
}

// NewLexer returns a lexer over src; file is used in diagnostics.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1}
}

// Errors returns the diagnostics accumulated so far.
func (lx *Lexer) Errors() []*Error { return lx.errs }

// errorf records a diagnostic, keeping at most 100 so that hostile
// input cannot make the list outgrow the input.
func (lx *Lexer) errorf(pos Pos, format string, args ...interface{}) {
	if len(lx.errs) < 100 {
		lx.errs = append(lx.errs, errf(lx.file, pos, format, args...))
	}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: int32(lx.off-lx.lineStart) + 1} }

// Text returns a token's text: its spelling in the source, or a
// string literal's unescaped value.
func (lx *Lexer) Text(t Token) string {
	if t.Kind == STRLIT {
		return lx.strs[t.Val]
	}
	return lx.src[t.Off:t.End]
}

// Describe renders a token for diagnostics: identifiers by spelling,
// integers by value, strings quoted, everything else by kind.
func (lx *Lexer) Describe(t Token) string {
	switch t.Kind {
	case IDENT:
		return lx.Text(t)
	case INTLIT:
		return strconv.FormatInt(t.Val, 10)
	case STRLIT:
		return strconv.Quote(lx.Text(t))
	}
	return t.Kind.String()
}

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
		lx.lineStart = lx.off
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
			lx.skipLine()
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
			lx.skipLine()
		default:
			return
		}
	}
}

// skipLine moves to the end of the line, leaving its newline.
func (lx *Lexer) skipLine() {
	for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
		lx.off++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, consuming it.
func (lx *Lexer) Next() Token {
	var t Token
	lx.scan(&t)
	return t
}

// scan consumes the next token and stores it in *t. The parser scans
// into its lookahead in place: a Token returned by value goes back
// through the stack in pieces, and reading it whole right after
// stalls the load on those stores.
func (lx *Lexer) scan(t *Token) {
	// Unexpected characters are reported and skipped by jumping back
	// here: recursing instead would take a stack frame per character.
retry:
	lx.skipSpaceAndComments()
	pos := lx.pos()
	start := lx.off
	if lx.off >= len(lx.src) {
		lx.token(t, EOF, pos, start, 0)
		return
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		// An identifier holds no newline, so the scan skips advance's
		// line bookkeeping.
		end := start + 1
		for end < len(lx.src) && isIdentCont(lx.src[end]) {
			end++
		}
		lx.off = end
		lx.token(t, keyword(lx.src[start:end]), pos, start, 0)
		return
	case isDigit(c):
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
		lx.token(t, INTLIT, pos, start, v)
		return
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
		lx.token(t, CHARLIT, pos, start, v)
		return
	case c == '"':
		lx.advance()
		body := lx.off
		escaped := false
		for lx.off < len(lx.src) && lx.peekByte() != '"' {
			if lx.advance() == '\\' && lx.off < len(lx.src) {
				lx.advance()
				escaped = true
			}
		}
		str := lx.src[body:lx.off]
		if escaped {
			str = unescapeString(str)
		}
		if lx.off < len(lx.src) {
			lx.advance() // closing quote
		} else {
			lx.errorf(pos, "unterminated string literal")
		}
		lx.strs = append(lx.strs, str)
		lx.token(t, STRLIT, pos, start, int64(len(lx.strs)-1))
		return
	}
	// Operators and punctuation: every case consumes one byte and
	// maybe more, but never a newline.
	lx.off++
	if k := lx.punct(c); k != EOF {
		lx.token(t, k, pos, start, 0)
		return
	}
	lx.errorf(pos, "unexpected character %q", lx.src[start:lx.off])
	goto retry
}

// token stores in *t the token of kind k that began at pos and offset
// start and ends at the current offset. It stores field by field: a
// Token built whole on the stack would be copied out by wide loads of
// the narrow stores that just built it.
func (lx *Lexer) token(t *Token, k Kind, pos Pos, start int, val int64) {
	t.Kind = k
	t.Pos = pos
	t.Off = int32(start)
	t.End = int32(lx.off)
	t.Val = val
}

// punct returns the operator or punctuation kind that begins with c,
// consuming the rest of it, or EOF when c begins none.
func (lx *Lexer) punct(c byte) Kind {
	two := func(next byte, k2, k1 Kind) Kind {
		if lx.peekByte() == next {
			lx.off++
			return k2
		}
		return k1
	}
	switch c {
	case '(':
		return LParen
	case ')':
		return RParen
	case '{':
		return LBrace
	case '}':
		return RBrace
	case '[':
		return LBrack
	case ']':
		return RBrack
	case ';':
		return Semi
	case ',':
		return Comma
	case '.':
		if lx.peekByte() == '.' && lx.peekByte2() == '.' {
			lx.off++
			lx.off++
			return Ellipsis
		}
		return Dot
	case '*':
		return Star
	case '+':
		if lx.peekByte() == '+' {
			lx.off++
			return Inc
		}
		return two('=', PlusAssign, Plus)
	case '-':
		if lx.peekByte() == '>' {
			lx.off++
			return Arrow
		}
		if lx.peekByte() == '-' {
			lx.off++
			return Dec
		}
		return two('=', MinusAssign, Minus)
	case '/':
		return Slash
	case '%':
		return Percent
	case '&':
		return two('&', AndAnd, Amp)
	case '|':
		return two('|', OrOr, Pipe)
	case '^':
		return Caret
	case '~':
		return Tilde
	case '!':
		return two('=', Neq, Not)
	case '=':
		return two('=', Eq, Assign)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '?':
		return Question
	case ':':
		return Colon
	}
	return EOF
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// unescapeString resolves the escapes of a string literal's body.
func unescapeString(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			sb.WriteByte(unescape(s[i]))
		} else {
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
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
