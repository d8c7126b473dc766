package cminor

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, errs := Parse("test.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func mustCheck(t *testing.T, src string) (*File, *Info) {
	t.Helper()
	f := mustParse(t, src)
	info := Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("check errors: %v", info.Errors)
	}
	return f, info
}

func TestParseFunctionDef(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) {
    return a + b;
}`)
	if len(f.Decls) != 1 {
		t.Fatalf("%d decls, want 1", len(f.Decls))
	}
	fd, ok := f.Decls[0].(*FuncDecl)
	if !ok {
		t.Fatalf("decl is %T", f.Decls[0])
	}
	if fd.Name != "add" || len(fd.Params) != 2 || fd.Body == nil {
		t.Fatalf("bad FuncDecl: %+v", fd)
	}
	if fd.Params[0].Name != "a" || fd.Params[1].Name != "b" {
		t.Fatalf("param names: %v %v", fd.Params[0].Name, fd.Params[1].Name)
	}
}

func TestParseStructAndTypedef(t *testing.T) {
	f := mustParse(t, `
struct conn { int fd; struct conn *next; };
typedef struct pool_t pool_t;
typedef struct { int x; } anon_t;
`)
	if len(f.Decls) != 4 {
		t.Fatalf("%d decls, want 4 (struct, typedef, anon struct, typedef)", len(f.Decls))
	}
	sd := f.Decls[0].(*StructDecl)
	if sd.Name != "conn" || len(sd.Fields) != 2 {
		t.Fatalf("bad struct: %+v", sd)
	}
	if _, ok := sd.Fields[1].Type.(*PtrTE); !ok {
		t.Fatalf("next field not pointer: %T", sd.Fields[1].Type)
	}
}

func TestParseFunctionPointer(t *testing.T) {
	f := mustParse(t, `
typedef int (*cmp_t)(void *, void *);
int apply(int (*fn)(int), int x) { return fn(x); }
`)
	td := f.Decls[0].(*TypedefDecl)
	pt, ok := td.Type.(*PtrTE)
	if !ok {
		t.Fatalf("typedef not pointer: %T", td.Type)
	}
	ft, ok := pt.Elem.(*FuncTE)
	if !ok || len(ft.Params) != 2 {
		t.Fatalf("typedef not function pointer: %T", pt.Elem)
	}
	fd := f.Decls[1].(*FuncDecl)
	if fd.Name != "apply" || len(fd.Params) != 2 {
		t.Fatalf("apply: %+v", fd)
	}
	if fd.Params[0].Name != "fn" {
		t.Fatalf("fn param name = %q", fd.Params[0].Name)
	}
}

func TestParseCastVsParen(t *testing.T) {
	f := mustParse(t, `
typedef struct pool pool;
void g(void *p, int x) {
    pool *q;
    int y;
    q = (pool *)p;
    y = (x) + 1;
}`)
	fd := f.Decls[1].(*FuncDecl)
	stmts := fd.Body.Stmts
	as1 := stmts[2].(*ExprStmt).X.(*AssignExpr)
	if _, ok := as1.RHS.(*Cast); !ok {
		t.Fatalf("q = (pool*)p parsed as %T", as1.RHS)
	}
	as2 := stmts[3].(*ExprStmt).X.(*AssignExpr)
	if _, ok := as2.RHS.(*Binary); !ok {
		t.Fatalf("y = (x)+1 parsed as %T", as2.RHS)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := mustParse(t, `
int fib(int n) {
    int a;
    int b;
    a = 0; b = 1;
    if (n < 0) return -1;
    while (n > 0) {
        int t;
        t = a + b;
        a = b;
        b = t;
        n = n - 1;
    }
    for (n = 0; n < 10; n++) {
        if (n == 5) break;
        else continue;
    }
    do { a++; } while (a < 3);
    return a;
}`)
	fd := f.Decls[0].(*FuncDecl)
	if fd.Body == nil || len(fd.Body.Stmts) < 7 {
		t.Fatalf("body has %d stmts", len(fd.Body.Stmts))
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	f := mustParse(t, `int g(int a, int b, int c) { return a + b * c == a && b || c; }`)
	ret := f.Decls[0].(*FuncDecl).Body.Stmts[0].(*Return)
	// ((a + (b*c)) == a && b) || c
	or, ok := ret.X.(*Binary)
	if !ok || or.Op != OrOr {
		t.Fatalf("top is %T", ret.X)
	}
	and, ok := or.X.(*Binary)
	if !ok || and.Op != AndAnd {
		t.Fatalf("lhs of || is not &&")
	}
	eq, ok := and.X.(*Binary)
	if !ok || eq.Op != Eq {
		t.Fatalf("lhs of && is not ==")
	}
	add, ok := eq.X.(*Binary)
	if !ok || add.Op != Plus {
		t.Fatalf("lhs of == is not +")
	}
	if mul, ok := add.Y.(*Binary); !ok || mul.Op != Star {
		t.Fatalf("rhs of + is not *")
	}
}

func TestParseTernaryAndSizeof(t *testing.T) {
	f := mustParse(t, `
struct big { int a[16]; };
long h(int c) { return c ? sizeof(struct big) : sizeof c; }`)
	ret := f.Decls[1].(*FuncDecl).Body.Stmts[0].(*Return)
	ce, ok := ret.X.(*CondExpr)
	if !ok {
		t.Fatalf("not ternary: %T", ret.X)
	}
	if _, ok := ce.Then.(*SizeofType); !ok {
		t.Fatalf("then not sizeof(type): %T", ce.Then)
	}
	if _, ok := ce.Else.(*SizeofExpr); !ok {
		t.Fatalf("else not sizeof expr: %T", ce.Else)
	}
}

func TestParseAPRStyleInterface(t *testing.T) {
	// The exact shape of Figure 6 from the paper.
	src := `
typedef struct apr_pool_t apr_pool_t;
typedef long apr_status_t;
typedef unsigned long apr_size_t;
typedef apr_status_t (*cleanup_t)(void *data);

extern apr_status_t apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void * apr_palloc(apr_pool_t *p, apr_size_t size);
extern void * apr_pcalloc(apr_pool_t *p, apr_size_t size);
extern void apr_pool_clear(apr_pool_t *p);
extern void apr_pool_destroy(apr_pool_t *p);
extern void apr_pool_cleanup_register(apr_pool_t *p, const void *data,
                                      cleanup_t plain_cleanup, ...);
`
	f, info := mustCheck(t, src)
	_ = f
	fc := info.Funcs["apr_pool_create"]
	if fc == nil {
		t.Fatal("apr_pool_create not declared")
	}
	// First parameter is apr_pool_t**.
	p0, ok := fc.Type.Params[0].(*PtrType)
	if !ok {
		t.Fatalf("param0 is %T", fc.Type.Params[0])
	}
	if _, ok := p0.Elem.(*PtrType); !ok {
		t.Fatalf("param0 not pointer-to-pointer: %s", fc.Type.Params[0])
	}
	creg := info.Funcs["apr_pool_cleanup_register"]
	if creg == nil || !creg.Type.Variadic {
		t.Fatal("cleanup_register should be variadic")
	}
}

func TestParseErrorsRecover(t *testing.T) {
	f, errs := Parse("bad.c", `
int ok1(void) { return 1; }
int bad( { }
int ok2(void) { return 2; }
`)
	if len(errs) == 0 {
		t.Fatal("expected parse errors")
	}
	names := []string{}
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			names = append(names, fd.Name)
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "ok1") || !strings.Contains(joined, "ok2") {
		t.Fatalf("recovery lost functions: %v", names)
	}
}

func TestCheckStructLayout(t *testing.T) {
	_, info := mustCheck(t, `
struct mix { char c; int i; char d; long l; };
union u { int i; long l; char c; };
struct req { struct mix m; struct req *next; };
`)
	mix := info.Structs["mix"]
	if mix.Size() != 24 {
		t.Fatalf("struct mix size = %d, want 24", mix.Size())
	}
	offsets := map[string]int64{"c": 0, "i": 4, "d": 8, "l": 16}
	for name, want := range offsets {
		if f := mix.FieldByName(name); f == nil || f.Offset != want {
			t.Fatalf("field %s offset = %v, want %d", name, f, want)
		}
	}
	u := info.Structs["u"]
	if u.Size() != 8 {
		t.Fatalf("union size = %d, want 8", u.Size())
	}
	for _, f := range u.Fields {
		if f.Offset != 0 {
			t.Fatalf("union field %s offset = %d", f.Name, f.Offset)
		}
	}
	req := info.Structs["req"]
	if req.Size() != 32 {
		t.Fatalf("struct req size = %d, want 32", req.Size())
	}
}

// TestCheckInlineStructDefinitions: a struct defined inside a
// file-scope typedef or variable declaration is declared once, not
// reported as a redefinition of itself.
func TestCheckInlineStructDefinitions(t *testing.T) {
	for _, tc := range []struct {
		src, tag string
		size     int64
	}{
		{"typedef struct { int a; } T;\nint f(void) { T t; t.a = 1; return t.a; }", "__anon1", 4},
		{"typedef struct s { int b; } U;\nint f(void) { U u; struct s *p; p = &u; return p->b; }", "s", 4},
		{"typedef struct { int a; long l; } A, *AP;\nint f(void) { A x; AP p; p = &x; return p->a; }", "__anon1", 16},
		{"struct { int a; } g;\nint f(void) { g.a = 1; return g.a; }", "__anon1", 4},
	} {
		f := mustParse(t, tc.src)
		info := Check(f)
		if len(info.Errors) != 0 {
			t.Errorf("%q: check errors %v", tc.src, info.Errors)
			continue
		}
		if st := info.Structs[tc.tag]; st == nil || st.Opaque || st.Size() != tc.size {
			t.Errorf("%q: struct %s = %+v, want defined with size %d", tc.src, tc.tag, st, tc.size)
		}
	}
}

// TestCheckAnonymousTypesAcrossFiles: files that each define an
// anonymous struct and enum check together, each name resolving to
// its own file's type; the first file keeps the tags it parsed.
func TestCheckAnonymousTypesAcrossFiles(t *testing.T) {
	c1 := mustParseAs(t, "c1.c", "typedef struct { int a; } T;\nenum { X };\nint f(T *t) { return t->a + X; }")
	c2 := mustParseAs(t, "c2.c", "typedef struct { long l; int b; } U;\nenum { Y };\nint g(U *u) { return u->b + Y; }")
	info := Check(c1, c2)
	if len(info.Errors) != 0 {
		t.Fatalf("check errors: %v", info.Errors)
	}
	st, su := info.Typedefs["T"].(*StructType), info.Typedefs["U"].(*StructType)
	if st.Name != "__anon1" || st.Size() != 4 || su.Name != "__anon1@c2.c" || su.Size() != 16 {
		t.Errorf("T = %s of %d bytes, U = %s of %d bytes; want __anon1 of 4 and __anon1@c2.c of 16",
			st, st.Size(), su, su.Size())
	}
	if x, y := info.Enums["X"].Enum, info.Enums["Y"].Enum; x != "__anonenum2" || y != "__anonenum2@c2.c" {
		t.Errorf("enum tags %s and %s, want __anonenum2 and __anonenum2@c2.c", x, y)
	}
}

func TestCheckSelfEmbeddingRejected(t *testing.T) {
	f := mustParse(t, `struct s { struct s inner; };`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("self-embedding struct not diagnosed")
	}
}

func TestCheckUndeclared(t *testing.T) {
	f := mustParse(t, `int g(void) { return nope; }`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("undeclared identifier not diagnosed")
	}
}

func TestCheckImplicitFunctionDecl(t *testing.T) {
	_, info := func() (*File, *Info) {
		f := mustParse(t, `int g(void) { return helper(1, 2); }`)
		return f, Check(f)
	}()
	if len(info.Errors) != 0 {
		t.Fatalf("implicit call should not error: %v", info.Errors)
	}
	h := info.Funcs["helper"]
	if h == nil || !h.Implicit {
		t.Fatal("helper not implicitly declared")
	}
}

func TestCheckFieldResolution(t *testing.T) {
	f, info := mustCheck(t, `
struct conn { int fd; struct conn *peer; };
int g(struct conn *c) { return c->peer->fd; }
`)
	fd := f.Decls[1].(*FuncDecl)
	ret := fd.Body.Stmts[0].(*Return)
	outer := ret.X.(*FieldAccess)
	fi, ok := info.Fields[outer]
	if !ok || fi.Field.Name != "fd" || fi.Field.Offset != 0 {
		t.Fatalf("outer field info: %+v", fi)
	}
	inner := outer.X.(*FieldAccess)
	fi2 := info.Fields[inner]
	if fi2.Field.Name != "peer" || fi2.Field.Offset != 8 {
		t.Fatalf("inner field info: %+v", fi2)
	}
}

func TestCheckPointerTypes(t *testing.T) {
	f, info := mustCheck(t, `
void g(void) {
    char *p;
    char *s;
    int i;
    s = "hello" + 1;
    s = 1 + p;
    i = i + 1;
}`)
	fd := f.Decls[0].(*FuncDecl)
	rhs := func(k int) *Binary {
		return fd.Body.Stmts[k].(*ExprStmt).X.(*AssignExpr).RHS.(*Binary)
	}
	lit, right, scalar := rhs(3), rhs(4), rhs(5)
	if got := info.PtrArith[lit]; got != lit.X {
		t.Errorf(`"hello" + 1: pointer side = %v, want the left operand`, got)
	}
	if got := info.PtrArith[right]; got != right.Y {
		t.Errorf("1 + p: pointer side = %v, want the right operand", got)
	}
	if got, ok := info.PtrArith[scalar]; ok {
		t.Errorf("i + 1: recorded pointer side %v, want none", got)
	}
	if len(info.PtrArith) != 2 {
		t.Errorf("PtrArith has %d entries, want 2", len(info.PtrArith))
	}
}

func TestCheckForScope(t *testing.T) {
	f, info := mustCheck(t, `
int g(void) {
    int s;
    s = 0;
    for (int i = 0; i < 4; i++) s = s + i;
    for (int i = 9; i > 0; i--) s = s - i;
    return s;
}`)
	fi := info.FuncInfo[f][findFunc(info, "g").Index]
	if len(fi.Locals) != 3 {
		t.Fatalf("locals = %d, want 3 (s and two loop i's)", len(fi.Locals))
	}
}

func findFunc(info *Info, name string) *FuncDecl {
	return info.Funcs[name].Decl
}

func TestCheckVariadicArity(t *testing.T) {
	f := mustParse(t, `
extern int printf(const char *fmt, ...);
int g(void) { return printf("%d %d", 1, 2); }
`)
	info := Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("variadic call should check: %v", info.Errors)
	}
	f2 := mustParse(t, `
int two(int a, int b) { return a + b; }
int g(void) { return two(1); }
`)
	info2 := Check(f2)
	if len(info2.Errors) == 0 {
		t.Fatal("arity mismatch not diagnosed")
	}
}
