package cminor

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// keywords is every keyword with its kind: what the lexer's keyword
// switch must recognize, and nothing else.
var keywords = map[string]Kind{
	"int": KwInt, "char": KwChar, "long": KwLong, "unsigned": KwUnsigned, "void": KwVoid,
	"struct": KwStruct, "union": KwUnion, "typedef": KwTypedef,
	"if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor, "do": KwDo,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"sizeof": KwSizeof, "extern": KwExtern, "static": KwStatic, "const": KwConst,
	"NULL": KwNull,
	"enum": KwEnum, "switch": KwSwitch, "case": KwCase, "default": KwDefault,
}

// TestTokenAndPosLayout: a Token fits in 32 bytes and a Pos in 8, and
// neither holds anything the collector has to scan.
func TestTokenAndPosLayout(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got > 32 {
		t.Errorf("Token is %d bytes, want at most 32", got)
	}
	if got := unsafe.Sizeof(Pos{}); got != 8 {
		t.Errorf("Pos is %d bytes, want 8", got)
	}
	for _, v := range []any{Token{}, Pos{}} {
		if path := pointerField(reflect.TypeOf(v)); path != "" {
			t.Errorf("%T holds a pointer-carrying field %s", v, path)
		}
	}
}

// TestIdentAndUsesLayout: an Ident fits in 20 bytes with nothing the
// collector has to scan, so its slabs are never scanned, and a Uses
// entry is 4 bytes.
func TestIdentAndUsesLayout(t *testing.T) {
	if got := unsafe.Sizeof(Ident{}); got > 20 {
		t.Errorf("Ident is %d bytes, want at most 20", got)
	}
	if path := pointerField(reflect.TypeOf(Ident{})); path != "" {
		t.Errorf("Ident holds a pointer-carrying field %s", path)
	}
	if got := reflect.TypeOf(Info{}.Uses).Elem().Elem().Size(); got != 4 {
		t.Errorf("a Uses entry is %d bytes, want 4", got)
	}
}

// pointerField returns the path to the first field of t (searched
// depth first) whose type carries a pointer: a pointer, slice, string,
// map, channel, function or interface. It returns "" if there is none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return t.Kind().String()
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
	}
	return ""
}

// TestKeywordsLex: every keyword lexes to its kind, alone and between
// other tokens; near misses (a prefix, an extension, a case change)
// lex as identifiers spelled as written.
func TestKeywordsLex(t *testing.T) {
	if len(keywords) != int(KwDefault-KwInt)+1 {
		t.Fatalf("keywords lists %d kinds, want every one of KwInt..KwDefault (%d)", len(keywords), KwDefault-KwInt+1)
	}
	for word, kind := range keywords {
		toks, errs := Tokenize("k.c", word)
		if len(errs) != 0 || len(toks) != 2 || toks[0].Kind != kind {
			t.Errorf("%q lexes to %v (errors %v), want %v", word, kinds(toks), errs, kind)
		}
		toks, _ = Tokenize("k.c", "("+word+")")
		if len(toks) != 4 || toks[1].Kind != kind {
			t.Errorf("(%s) lexes to %v, want %v inside parentheses", word, kinds(toks), kind)
		}
	}
	nearMisses := []string{"iff", "In", "int_", "_int", "NULLx", "whilE", "typedefs",
		"i", "d", "Int", "null", "dO", "fo", "cas", "swtch", "unsigne", "continuee", "x"}
	for word := range keywords {
		nearMisses = append(nearMisses, word+"1", strings.ToUpper(word[:1])+word[1:], word[:len(word)-1])
	}
	for _, word := range nearMisses {
		if _, ok := keywords[word]; ok {
			continue
		}
		lx := NewLexer("k.c", word)
		tok := lx.Next()
		if tok.Kind != IDENT || lx.Text(tok) != word || lx.Next().Kind != EOF {
			t.Errorf("%q lexes as %v %q, want one identifier", word, tok.Kind, lx.Text(tok))
		}
	}
}
