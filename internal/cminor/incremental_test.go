package cminor

import (
	"strings"
	"testing"
)

// sameDeclsBase has text before, between and after its function
// bodies, so every gap SameDecls compares is exercised.
const sameDeclsBase = `struct S { int a; int b; };
int g = 1;
int f(int x) { return x + 1; }
int h(struct S *s) {
	char *t = "}";
	/* } */
	return s->a;
}
int tail = 2;
`

func TestSameDecls(t *testing.T) {
	edit := func(from, to string) string {
		t.Helper()
		if !strings.Contains(sameDeclsBase, from) {
			t.Fatalf("base holds no %q", from)
		}
		return strings.Replace(sameDeclsBase, from, to, 1)
	}
	bodyStruct := edit("return x + 1;", "return x + sizeof(struct L { int y; });")
	initStruct := edit("int tail = 2;", "int tail = sizeof(struct { int z; });")
	cases := []struct {
		name     string
		old, cur string
		want     bool
	}{
		{"unchanged", sameDeclsBase, sameDeclsBase, true},
		{"body statement edit", sameDeclsBase, edit("return x + 1;", "x = x * 2; return x;"), true},
		{"string holding } in a body", sameDeclsBase, edit(`"}"`, `"}}"`), true},
		{"comment holding } in a body", sameDeclsBase, edit("/* } */", "/* } { */"), true},
		{"comment right after a body", sameDeclsBase, edit("}\nint tail", "} /* note */\nint tail"), true},
		{"comment before the first body", sameDeclsBase, edit("int g = 1;", "/* note */ int g = 1;"), false},
		{"parameter rename", sameDeclsBase, edit("int f(int x) { return x + 1; }", "int f(int y) { return y + 1; }"), false},
		{"global initializer change", sameDeclsBase, edit("int g = 1;", "int g = 3;"), false},
		{"initializer change after the last body", sameDeclsBase, edit("int tail = 2;", "int tail = 3;"), false},
		{"added function", sameDeclsBase, sameDeclsBase + "int k(void) { return 0; }\n", false},
		{"struct field change", sameDeclsBase, edit("int b;", "long b;"), false},
		{"struct defined in the old body", bodyStruct, sameDeclsBase, false},
		{"struct defined in the new body", sameDeclsBase, bodyStruct, false},
		{"enum defined in a body", sameDeclsBase, edit("return x + 1;", "return x + sizeof(enum { E });"), false},
		{"anonymous struct in a global initializer", initStruct,
			strings.Replace(initStruct, "return x + 1;", "return x;", 1), false},
	}
	for _, tc := range cases {
		old := mustParseAs(t, "a.c", tc.old)
		cur := mustParseAs(t, "a.c", tc.cur)
		if got := SameDecls(old, tc.old, cur, tc.cur); got != tc.want {
			t.Errorf("%s: SameDecls = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// TestCheckIncrementalKeepsObjectsApart: two incremental checks
// against one base that each add an object (an implicit function)
// number it after the base's objects without writing the base's table
// or each other's. The prototype makes the base's table larger than
// its objects, so an append that did not copy would share the spare
// slot.
func TestCheckIncrementalKeepsObjectsApart(t *testing.T) {
	const baseSrc = "int f(int x);\n" + sameDeclsBase
	prev := Check(mustParseAs(t, "a.c", baseSrc))
	if len(prev.Errors) != 0 {
		t.Fatalf("check: %v", prev.Errors[0])
	}
	n := len(prev.Objects)
	infos := make(map[string]*Info)
	files := make(map[string]*File)
	for _, callee := range []string{"foo", "bar"} {
		src := strings.Replace(baseSrc, "return x + 1;", "return "+callee+"(x);", 1)
		f := mustParseAs(t, "a.c", src)
		infos[callee] = CheckIncremental(prev, []*File{f}, map[string]bool{"a.c": true})
		files[callee] = f
	}
	for callee, info := range infos {
		f := files[callee]
		var fd *FuncDecl
		for _, d := range f.Decls {
			if d, ok := d.(*FuncDecl); ok && d.Name == "f" && d.Body != nil {
				fd = d
			}
		}
		found := false
		for _, id := range idents(fd.Body) {
			if f.Name(id) != callee {
				continue
			}
			fo, ok := info.Object(info.Uses[f][id.ID], &info.FuncInfo[f][fd.Index]).(*FuncObject)
			if !ok || fo.Name != callee || !fo.Implicit || fo.Index < n {
				t.Fatalf("%s resolves to %#v, want an implicit function numbered from %d", callee, fo, n)
			}
			found = true
		}
		if !found {
			t.Fatalf("%s: no identifier names the callee", callee)
		}
	}
	if len(prev.Objects) != n || prev.Funcs["foo"] != nil || prev.Funcs["bar"] != nil {
		t.Fatal("an incremental check wrote the base's tables")
	}
}
