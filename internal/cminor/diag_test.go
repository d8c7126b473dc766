package cminor

import (
	"strings"
	"testing"
)

// TestSelfEmbeddingStructPosition: a struct that embeds itself is
// reported at the embedding field, in the field's file, whichever
// file the checker last visited.
func TestSelfEmbeddingStructPosition(t *testing.T) {
	for _, tc := range []struct {
		files [][2]string
		want  string
	}{
		{[][2]string{{"a.c", "int a;"}, {"self.c", "struct s { int a; struct s x; };"}},
			"self.c:1:19: struct s embeds itself (use a pointer)"},
		{[][2]string{{"self.c", "struct s { int a; struct s x; };"}, {"z.c", "int z;"}},
			"self.c:1:19: struct s embeds itself (use a pointer)"},
		{[][2]string{{"a.c", "struct a { struct b y; };"}, {"b.c", "int q;\nstruct b {\n  int q;\n  struct a x[2];\n};"}},
			"b.c:4:3: struct a embeds itself (use a pointer)"},
		{[][2]string{{"a.c", "int a;"}, {"g.c", "struct s { int a; const struct s x, y; };"}},
			"g.c:1:19: struct s embeds itself (use a pointer)"},
		{[][2]string{{"a.c", "int a;"}, {"t.c", "typedef struct s { int a; struct s x; } T;"}},
			"t.c:1:27: struct s embeds itself (use a pointer)"},
	} {
		var fs []*File
		for _, f := range tc.files {
			fs = append(fs, mustParseAs(t, f[0], f[1]))
		}
		errs := Check(fs...).Errors
		if len(errs) == 0 || errs[0].Error() != tc.want {
			t.Errorf("%v: errors %v, want first %q", tc.files, errs, tc.want)
		}
	}
}

// TestUnknownTypeNamesFile: the checker qualifies a diagnostic with
// the file it is checking. An unknown type name cannot come from
// source (the parser takes only a declared typedef name as a type),
// so the AST is built by hand.
func TestUnknownTypeNamesFile(t *testing.T) {
	a := mustParseAs(t, "a.c", "int a;")
	b := &File{Path: "b.c", Decls: []Decl{
		&VarDecl{Pos: Pos{Line: 2, Col: 3}, Name: "x", Type: &NameTE{Name: "T"}},
	}}
	errs := Check(a, b).Errors
	if len(errs) != 1 || errs[0].Error() != `b.c:2:3: unknown type "T"` {
		t.Errorf("errors %v, want one unknown type error at b.c:2:3", errs)
	}
}

// TestLexNonASCIIByte: a byte that begins no token is reported as
// that byte, not as the rune of the same number.
func TestLexNonASCIIByte(t *testing.T) {
	_, errs := Tokenize("t.c", "int x\xc3\xa9;")
	var got []string
	for _, e := range errs {
		got = append(got, e.Error())
	}
	want := []string{`t.c:1:6: unexpected character "\xc3"`, `t.c:1:7: unexpected character "\xa9"`}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("errors %q, want %q", got, want)
	}
}

// TestFileSizeLimit: token offsets are int32, so a longer file is
// refused before lexing, with one error at 1:1.
func TestFileSizeLimit(t *testing.T) {
	if err := checkFileSize("big.c", maxFileSize); err != nil {
		t.Errorf("a file of %d bytes refused: %v", maxFileSize, err)
	}
	err := checkFileSize("big.c", maxFileSize+1)
	if err == nil || err.Error() != "big.c:1:1: file longer than 2147483647 bytes" {
		t.Errorf("a file of %d bytes: error %v", maxFileSize+1, err)
	}
}
