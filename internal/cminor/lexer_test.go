package cminor

import "testing"

// Tokenize lexes the whole input, EOF included.
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

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestLexBasics(t *testing.T) {
	toks, errs := Tokenize("t.c", `int main(void) { return 42; }`)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []Kind{KwInt, IDENT, LParen, KwVoid, RParen, LBrace, KwReturn, INTLIT, Semi, RBrace, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if toks[7].Val != 42 {
		t.Fatalf("literal value %d, want 42", toks[7].Val)
	}
}

func TestLexOperators(t *testing.T) {
	src := `-> ++ -- == != <= >= && || += -= ... . - + & | ^ ~ ! ? :`
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []Kind{Arrow, Inc, Dec, Eq, Neq, Le, Ge, AndAnd, OrOr, PlusAssign,
		MinusAssign, Ellipsis, Dot, Minus, Plus, Amp, Pipe, Caret, Tilde, Not, Question, Colon, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	src := "int /* block\ncomment */ x; // line comment\nchar y;"
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []Kind{KwInt, IDENT, Semi, KwChar, IDENT, Semi, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexPreprocessorSkipped(t *testing.T) {
	src := "#include <stdio.h>\nint x;"
	toks, errs := Tokenize("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Kind != KwInt {
		t.Fatalf("preprocessor line not skipped: %v", toks[0])
	}
}

func TestLexLiterals(t *testing.T) {
	lx := NewLexer("t.c", `0x1F 010 'a' '\n' "hi\tthere" 42u 100L "plain"`)
	var toks []Token
	for tok := lx.Next(); tok.Kind != EOF; tok = lx.Next() {
		toks = append(toks, tok)
	}
	if errs := lx.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Val != 31 {
		t.Errorf("hex literal = %d, want 31", toks[0].Val)
	}
	if toks[1].Val != 8 {
		t.Errorf("octal literal = %d, want 8", toks[1].Val)
	}
	if toks[2].Val != 'a' || toks[3].Val != '\n' {
		t.Errorf("char literals wrong: %d %d", toks[2].Val, toks[3].Val)
	}
	if lx.Text(toks[4]) != "hi\tthere" {
		t.Errorf("string literal = %q", lx.Text(toks[4]))
	}
	if lx.Text(toks[7]) != "plain" || lx.Text(toks[0]) != "0x1F" || lx.Text(toks[6]) != "100L" {
		t.Errorf("token texts = %q %q %q", lx.Text(toks[7]), lx.Text(toks[0]), lx.Text(toks[6]))
	}
	if toks[5].Val != 42 || toks[6].Val != 100 {
		t.Errorf("suffixed literals wrong: %d %d", toks[5].Val, toks[6].Val)
	}
}

func TestLexPositions(t *testing.T) {
	toks, _ := Tokenize("f.c", "int\n  x;")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexUnterminated(t *testing.T) {
	_, errs := Tokenize("t.c", `"abc`)
	if len(errs) == 0 {
		t.Fatal("unterminated string not diagnosed")
	}
	_, errs = Tokenize("t.c", "/* never closed")
	if len(errs) == 0 {
		t.Fatal("unterminated comment not diagnosed")
	}
}
