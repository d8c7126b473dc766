package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// diagnosticCase is a malformed program of two or three files whose
// fault sits in a file other than the first, with the error it must
// produce: kind, position and full message.
type diagnosticCase struct {
	name    string
	sources map[string]string
	kind    ErrorKind
	pos     string
	msg     string
}

// diagnosticCases pin the front end's diagnostics across files: the
// lexer, the parser, its nesting and token budgets, and each checker
// pass. Every position must name the faulty file.
var diagnosticCases = []diagnosticCase{
	{
		name:    "lex/char-literal",
		sources: map[string]string{"a.c": "int a;", "b.c": "int b;\nint c = 'x;"},
		kind:    ErrParse, pos: "b.c:2:9",
		msg: "parse b.c: b.c:2:9: unterminated char literal (and 0 more)",
	},
	{
		name:    "lex/unterminated-comment",
		sources: map[string]string{"a.c": "int a;", "b.c": "int b; /* never\nclosed", "c.c": "int c;"},
		kind:    ErrParse, pos: "b.c:1:8",
		msg: "parse b.c: b.c:1:8: unterminated block comment (and 0 more)",
	},
	{
		name:    "lex/bad-integer-literal",
		sources: map[string]string{"a.c": "int a;", "b.c": "int b;", "c.c": "int c = 0x;"},
		kind:    ErrParse, pos: "c.c:1:9",
		msg: `parse c.c: c.c:1:9: bad integer literal "0x" (and 0 more)`,
	},
	{
		// The lexer names the offending byte, not the rune U+00C3.
		name:    "lex/non-ascii-byte",
		sources: map[string]string{"a.c": "int a;", "b.c": "int x\xc3\xa9;"},
		kind:    ErrParse, pos: "b.c:1:6",
		msg: `parse b.c: b.c:1:6: unexpected character "\xc3" (and 1 more)`,
	},
	{
		name:    "parse/found-identifier",
		sources: map[string]string{"a.c": "int a;", "b.c": "int f(void) {\n  return 1 foo;\n}"},
		kind:    ErrParse, pos: "b.c:2:12",
		msg: "parse b.c: b.c:2:12: expected ;, found foo (and 0 more)",
	},
	{
		name:    "parse/found-keyword",
		sources: map[string]string{"a.c": "int a;", "b.c": "int g(void) { int x = while; return x; }"},
		kind:    ErrParse, pos: "b.c:1:23",
		msg: "parse b.c: b.c:1:23: expected expression, found while (and 0 more)",
	},
	{
		name:    "parse/found-string",
		sources: map[string]string{"a.c": "int a;", "b.c": "int a2;", "c.c": "int h(void) { return 1 \"s\\tq\"; }"},
		kind:    ErrParse, pos: "c.c:1:24",
		msg: `parse c.c: c.c:1:24: expected ;, found "s\tq" (and 0 more)`,
	},
	{
		name: "parse/nesting-budget",
		sources: map[string]string{"a.c": "int a;",
			"b.c": "int b = " + strings.Repeat("(", 1001) + "1" + strings.Repeat(")", 1001) + ";"},
		kind: ErrParse, pos: "b.c:1:1009",
		msg: "parse b.c: b.c:1:1009: nesting deeper than 1000 levels (and 0 more)",
	},
	{
		// b.c is 1<<21 empty declarations: with a.c's three tokens,
		// its token at 1:2097149 is the first over the analysis's
		// budget.
		name:    "parse/token-budget",
		sources: map[string]string{"a.c": "int a;", "b.c": strings.Repeat(";", 1<<21)},
		kind:    ErrParse, pos: "b.c:1:2097150",
		msg: "parse b.c: b.c:1:2097150: more than 2097152 tokens in one analysis (and 0 more)",
	},
	{
		name:    "check/struct-redefined",
		sources: map[string]string{"a.c": "struct s { int a; };", "b.c": "int b;\nstruct s { int b; };"},
		kind:    ErrParse, pos: "b.c:2:1",
		msg: "check: b.c:2:1: struct s redefined (and 0 more)",
	},
	{
		// A self-embedding struct is reported at the embedding field,
		// in the field's file.
		name: "check/struct-embeds-itself",
		sources: map[string]string{"a.c": "int a;",
			"b.c": "int b;\nstruct s { int a; struct s x; };"},
		kind: ErrParse, pos: "b.c:2:19",
		msg: "check: b.c:2:19: struct s embeds itself (use a pointer) (and 0 more)",
	},
	{
		name:    "check/function-redefined",
		sources: map[string]string{"a.c": "int f(void) { return 0; }", "b.c": "int b;\nint f(void) { return 1; }"},
		kind:    ErrParse, pos: "b.c:2:1",
		msg: "check: b.c:2:1: function f redefined (and 0 more)",
	},
	{
		name:    "check/undeclared-identifier",
		sources: map[string]string{"a.c": "int a;", "b.c": "int f(void) {\n  return zz;\n}", "c.c": "int c;"},
		kind:    ErrParse, pos: "b.c:2:10",
		msg: `check: b.c:2:10: undeclared identifier "zz" (and 0 more)`,
	},
	{
		name: "check/bad-field-access",
		sources: map[string]string{"a.c": "struct s { int a; };",
			"b.c": "struct s;\nint f(struct s *p) {\n  return p->b;\n}"},
		kind: ErrParse, pos: "b.c:3:11",
		msg: `check: b.c:3:11: struct s has no field "b" (and 0 more)`,
	},
	{
		// Every file numbers its anonymous structs from 1; in files
		// after the first the tag names the file.
		name: "check/anonymous-struct-field",
		sources: map[string]string{"a.c": "typedef struct { int a; } T;",
			"b.c": "typedef struct { int b; } U;\nint f(U *p) {\n  return p->a;\n}"},
		kind: ErrParse, pos: "b.c:3:11",
		msg: `check: b.c:3:11: struct __anon1@b.c has no field "a" (and 0 more)`,
	},
}

func TestDiagnosticsAcrossFiles(t *testing.T) {
	for _, tc := range diagnosticCases {
		_, err := AnalyzeSource(Options{}, tc.sources)
		checkDiagnostic(t, tc.name, err, tc.kind, tc.pos, tc.msg)
	}
}

// TestDiagnosticsIncrementalCheck: an error found by the incremental
// checker's fast path (a body-only edit) names the edited file.
// TestAnonymousStructsAcrossFiles: two files that each define a struct
// without a tag analyze together.
func TestAnonymousStructsAcrossFiles(t *testing.T) {
	if _, err := AnalyzeSource(Options{}, map[string]string{
		"c1.c": "typedef struct { int a; } T;\nint g(void *u);\nint main(void) { T t; t.a = 1; return t.a + g(&t); }",
		"c2.c": "typedef struct { int b; } U;\nint g(U *u) { return u->b; }",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagnosticsIncrementalCheck(t *testing.T) {
	ctx := context.Background()
	base := map[string]string{
		"a.c": "int f(void) { return 0; }\nint main(void) { return f(); }",
		"b.c": "extern int f(void);\nint g(void) {\n  return f();\n}",
	}
	first, err := AnalyzeSourceContext(ctx, Options{}, base)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeIncremental(ctx, Options{}, first,
		first.Apply(map[string]string{"b.c": "extern int f(void);\nint g(void) {\n  return f() + h->x;\n}"}, nil))
	checkDiagnostic(t, "incremental/undeclared", err, ErrParse, "b.c:3:16",
		`check: b.c:3:16: undeclared identifier "h" (and 1 more)`)
	if a != nil {
		t.Errorf("incremental/undeclared: got an analysis with the error")
	}
}

func checkDiagnostic(t *testing.T, name string, err error, kind ErrorKind, pos, msg string) {
	t.Helper()
	var ce *Error
	if !errors.As(err, &ce) {
		t.Errorf("%s: err = %v, want a *core.Error", name, err)
		return
	}
	if ce.Kind != kind || ce.Pos != pos || ce.Error() != msg {
		t.Errorf("%s:\n got  %v %q %q\n want %v %q %q", name, ce.Kind, ce.Pos, ce.Error(), kind, pos, msg)
	}
}
