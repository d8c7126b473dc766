package cminor

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Arrow.String() != "->" || IDENT.String() != "identifier" {
		t.Fatal("Kind.String broken")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestTokenString(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"foo", "foo"},
		{"7", "7"},
		{`"hi"`, `"hi"`},
		{"->", "->"},
	}
	for _, tc := range cases {
		lx := NewLexer("t.c", tc.src)
		if got := lx.Describe(lx.Next()); got != tc.want {
			t.Errorf("Token = %q, want %q", got, tc.want)
		}
	}
}

func TestPosString(t *testing.T) {
	p := FilePos{File: "a.c", Pos: Pos{Line: 3, Col: 9}}
	if p.String() != "a.c:3:9" {
		t.Fatalf("pos = %q", p)
	}
	if (Pos{Line: 1, Col: 2}).String() != "1:2" || (FilePos{Pos: Pos{Line: 1, Col: 2}}).String() != "1:2" {
		t.Fatal("fileless pos format")
	}
	if (Pos{}).IsValid() {
		t.Fatal("zero pos valid")
	}
}

func TestParseUnionDecl(t *testing.T) {
	_, info := mustCheck(t, `
union value { long i; void *p; char bytes[8]; };
int g(void) {
    union value v;
    v.i = 3;
    return (int)v.i;
}`)
	u := info.Structs["value"]
	if u == nil || !u.Union || u.Size() != 8 {
		t.Fatalf("union: %+v", u)
	}
}

func TestParseNestedStructAccess(t *testing.T) {
	_, info := mustCheck(t, `
struct inner { int a; int b; };
struct outer { struct inner in; int tail; };
int g(struct outer *o) { return o->in.b + o->tail; }`)
	outer := info.Structs["outer"]
	if outer.Size() != 12 {
		t.Fatalf("outer size %d, want 12", outer.Size())
	}
	if f := outer.FieldByName("tail"); f.Offset != 8 {
		t.Fatalf("tail offset %d", f.Offset)
	}
}

func TestParsePointerToPointerDeclAndUse(t *testing.T) {
	mustCheck(t, `
int g(void) {
    int x;
    int *p;
    int **pp;
    x = 1;
    p = &x;
    pp = &p;
    return **pp;
}`)
}

func TestParseStructArrayField(t *testing.T) {
	_, info := mustCheck(t, `
struct buf { char data[16]; int len; };
int g(struct buf *b) { return b->len; }`)
	s := info.Structs["buf"]
	if s.Size() != 20 {
		t.Fatalf("buf size %d, want 20", s.Size())
	}
	if f := s.FieldByName("len"); f.Offset != 16 {
		t.Fatalf("len offset %d", f.Offset)
	}
}

func TestParseOpaquePointerOnly(t *testing.T) {
	// Opaque structs are usable behind pointers only.
	mustCheck(t, `
struct opaque;
struct opaque *keep(struct opaque *p) { return p; }`)
	f := mustParse(t, `
struct opaque;
int g(struct opaque *p) { return p->x; }`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("field access on opaque struct not diagnosed")
	}
}

func TestParseStaticAndConstIgnored(t *testing.T) {
	mustCheck(t, `
static int counter = 0;
static int bump(const int delta) {
    return counter + delta;
}
int use(void) { return bump(1); }`)
}

func TestParseCharEscapesInStrings(t *testing.T) {
	f := mustParse(t, `char *s = "line1\nline2\t\"q\"";`)
	vd := f.Decls[0].(*VarDecl)
	lit := vd.Init.(*StrLit)
	if !strings.Contains(lit.V, "\n") || !strings.Contains(lit.V, "\"q\"") {
		t.Fatalf("escapes: %q", lit.V)
	}
}

func TestParseAdjacentStringConcat(t *testing.T) {
	f := mustParse(t, `char *s = "foo" "bar";`)
	lit := f.Decls[0].(*VarDecl).Init.(*StrLit)
	if lit.V != "foobar" {
		t.Fatalf("concat = %q", lit.V)
	}
}

func TestParseCommaDeclarations(t *testing.T) {
	_, info := mustCheck(t, `
int a, b, *c;
int g(void) { return a + b; }`)
	if info.Globals["a"] == nil || info.Globals["b"] == nil || info.Globals["c"] == nil {
		t.Fatal("comma-declared globals missing")
	}
	if _, ok := info.Globals["c"].Type.(*PtrType); !ok {
		t.Fatalf("c type %v", info.Globals["c"].Type)
	}
}

func TestParseEmptyStatements(t *testing.T) {
	mustCheck(t, `
int g(void) {
    ;
    for (;;) break;
    while (0) ;
    return 0;
}`)
}

func TestParseUnaryPermutations(t *testing.T) {
	mustCheck(t, `
int g(int x) {
    int y;
    y = -x + +x;
    y = ~x;
    y = !x;
    y = x++ + x-- + ++x + --x;
    return y;
}`)
}

func TestCheckDerefNonPointerDiagnosed(t *testing.T) {
	f := mustParse(t, `int g(int x) { return *x; }`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("deref of int not diagnosed")
	}
}

func TestCheckArrowOnNonPointerDiagnosed(t *testing.T) {
	f := mustParse(t, `
struct s { int a; };
int g(struct s v) { return v->a; }`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("-> on value not diagnosed")
	}
}

func TestCheckUnknownFieldDiagnosed(t *testing.T) {
	f := mustParse(t, `
struct s { int a; };
int g(struct s *v) { return v->nope; }`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("unknown field not diagnosed")
	}
}

func TestCheckCallNonFunctionDiagnosed(t *testing.T) {
	f := mustParse(t, `
int g(void) {
    int x;
    x = 1;
    return x(2);
}`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("calling an int not diagnosed")
	}
}

func TestTypeStrings(t *testing.T) {
	pt := &PtrType{Elem: TypeInt}
	if pt.String() != "int*" {
		t.Fatalf("ptr string %q", pt)
	}
	at := &ArrayType{Elem: TypeChar, N: 4}
	if at.String() != "char[4]" {
		t.Fatalf("array string %q", at)
	}
	ft := &FuncType{Ret: TypeVoid, Params: []Type{TypeInt}, Variadic: true}
	if ft.String() != "void (int, ...)" {
		t.Fatalf("func string %q", ft)
	}
	st := &StructType{Name: "s", Union: true}
	if st.String() != "union s" {
		t.Fatalf("union string %q", st)
	}
}

func TestFuncNamesSorted(t *testing.T) {
	_, info := mustCheck(t, `
int b(void) { return 0; }
int a(void) { return 0; }`)
	names := info.FuncNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("FuncNames = %v", names)
	}
}

// Inputs the front-end fuzzer found panicking: each must end in
// diagnostics, not a crash.
func TestHostileInputsGiveErrors(t *testing.T) {
	// A redefinition with another parameter list once indexed past the
	// first definition's parameter types.
	f := mustParse(t, "int f(int a) { return a; }\nint f(int a, int b) { return b; }")
	if info := Check(f); len(info.Errors) == 0 || !strings.Contains(info.Errors[0].Error(), "redefined") {
		t.Fatalf("redefinition errors = %v", info.Errors)
	}
	// A character literal cut off after its backslash once read past
	// the input, and a run of stray characters once recursed once per
	// character, overflowing the stack at a few million.
	for _, src := range []string{`'\`, strings.Repeat(`\`, 4<<20)} {
		if _, errs := Parse("hostile.c", src); len(errs) == 0 {
			t.Fatalf("no diagnostics for %.10q", src)
		}
	}
}
