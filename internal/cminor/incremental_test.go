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
	const fDef = "int f(int x) { return x + 1; }\n"
	cases := []struct {
		name           string
		old, cur       string
		want           bool
		added, removed string // comma-separated names
	}{
		{"unchanged", sameDeclsBase, sameDeclsBase, true, "", ""},
		{"body statement edit", sameDeclsBase, edit("return x + 1;", "x = x * 2; return x;"), true, "", ""},
		{"string holding } in a body", sameDeclsBase, edit(`"}"`, `"}}"`), true, "", ""},
		{"comment holding } in a body", sameDeclsBase, edit("/* } */", "/* } { */"), true, "", ""},
		{"comment right after a body", sameDeclsBase, edit("}\nint tail", "} /* note */\nint tail"), true, "", ""},
		{"comment before the first body", sameDeclsBase, edit("int g = 1;", "/* note */ int g = 1;"), false, "", ""},
		{"parameter rename", sameDeclsBase, edit("int f(int x) { return x + 1; }", "int f(int y) { return y + 1; }"), false, "", ""},
		{"global initializer change", sameDeclsBase, edit("int g = 1;", "int g = 3;"), false, "", ""},
		{"initializer change after the last body", sameDeclsBase, edit("int tail = 2;", "int tail = 3;"), false, "", ""},
		{"added function", sameDeclsBase, sameDeclsBase + "int k(void) { return 0; }\n", true, "k", ""},
		{"function removed from the middle", sameDeclsBase, edit(fDef, ""), true, "", "f"},
		{"function inserted between two others", sameDeclsBase, edit(fDef, fDef+"int k(void) { return 0; }\n"), true, "k", ""},
		{"prefix names removed and added", sameDeclsBase, edit(fDef, "") + "int ff(void) { return 0; }\n", true, "ff", "f"},
		{"removed and added with another edit", sameDeclsBase, edit(fDef, "int ff(void) { return 0; }\n") + "int more;\n", false, "", ""},
		{"added signature defining a struct", sameDeclsBase, sameDeclsBase + "int k(struct { int q; } *p) { return 0; }\n", false, "", ""},
		{"added definition sharing its declaration", sameDeclsBase, sameDeclsBase + "int z, k(void) { return 0; }\n", false, "", ""},
		{"kept functions swapped", sameDeclsBase, edit(fDef, "") + fDef, false, "", ""},
		{"function redefined", sameDeclsBase, sameDeclsBase + fDef, false, "", ""},
		{"struct field change", sameDeclsBase, edit("int b;", "long b;"), false, "", ""},
		{"struct defined in the old body", bodyStruct, sameDeclsBase, false, "", ""},
		{"struct defined in the new body", sameDeclsBase, bodyStruct, false, "", ""},
		{"enum defined in a body", sameDeclsBase, edit("return x + 1;", "return x + sizeof(enum { E });"), false, "", ""},
		{"anonymous struct in a global initializer", initStruct,
			strings.Replace(initStruct, "return x + 1;", "return x;", 1), false, "", ""},
	}
	for _, tc := range cases {
		old := mustParseAs(t, "a.c", tc.old)
		cur := mustParseAs(t, "a.c", tc.cur)
		e, got := SameDecls(old, tc.old, cur, tc.cur)
		if got != tc.want {
			t.Errorf("%s: SameDecls = %t, want %t", tc.name, got, tc.want)
			continue
		}
		var added []string
		for _, fd := range e.Added {
			added = append(added, fd.Name)
		}
		if !got {
			continue
		}
		if a, r := strings.Join(added, ","), strings.Join(e.Removed, ","); a != tc.added || r != tc.removed {
			t.Errorf("%s: SameDecls added %q and removed %q, want %q and %q", tc.name, a, r, tc.added, tc.removed)
		}
	}
}

// TestHasIdent: a name counts only as a whole identifier.
func TestHasIdent(t *testing.T) {
	for _, tc := range []struct {
		src, name string
		want      bool
	}{
		{"x = perfbench_edit_55(1);", "perfbench_edit_5", false},
		{"x = perfbench_edit_55(1) + perfbench_edit_5(2);", "perfbench_edit_5", true},
		{"perfbench_edit_5", "perfbench_edit_5", true},
		{"my_f(1);", "f", false},
		{"f2(1);", "f", false},
		{"0f;", "f", false},
		{"(f)", "f", true},
		{"", "f", false},
	} {
		if got := HasIdent(tc.src, tc.name); got != tc.want {
			t.Errorf("HasIdent(%q, %q) = %t, want %t", tc.src, tc.name, got, tc.want)
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
		infos[callee] = CheckIncremental(prev, []*File{f}, map[string]DeclEdit{"a.c": {}})
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

// TestCheckIncrementalAddRemove: an incremental check drops a removed
// function, declares an added one under the removed one's number,
// gives a kept function an object naming its new definition, and
// leaves the base's tables alone; an added signature that names a
// struct the base never saw gives no result, since the incremental
// contract keeps the base's struct and typedef tables as they are.
func TestCheckIncrementalAddRemove(t *testing.T) {
	prev := Check(mustParseAs(t, "a.c", sameDeclsBase))
	if len(prev.Errors) != 0 {
		t.Fatalf("check: %v", prev.Errors[0])
	}
	n := len(prev.Objects)
	check := func(src string) *Info {
		t.Helper()
		f := mustParseAs(t, "a.c", src)
		e, ok := SameDecls(mustParseAs(t, "a.c", sameDeclsBase), sameDeclsBase, f, src)
		if !ok {
			t.Fatalf("SameDecls does not hold for\n%s", src)
		}
		return CheckIncremental(prev, []*File{f}, map[string]DeclEdit{"a.c": e})
	}
	src := strings.Replace(sameDeclsBase, "int f(int x) { return x + 1; }\n", "", 1) +
		"int k(int y) { return y; }\n"
	info := check(src)
	if info == nil || len(info.Errors) != 0 {
		t.Fatalf("incremental check failed: %v", info)
	}
	if info.Funcs["f"] != nil {
		t.Error("removed function f is still declared")
	}
	f := prev.Funcs["f"]
	if k := info.Funcs["k"]; k == nil || k.Index != f.Index || info.Objects[k.Index] != k {
		t.Errorf("added function k is %#v, want the removed f's number %d", k, f.Index)
	}
	if h := info.Funcs["h"]; h == prev.Funcs["h"] || info.Objects[h.Index] != h || h.Decl.Body == nil {
		t.Error("kept function h still names its previous definition")
	}
	if prev.Funcs["k"] != nil || len(prev.Objects) != n || prev.Objects[f.Index] != f {
		t.Error("the incremental check wrote the base's tables")
	}
	if info := check(sameDeclsBase + "int k(struct Q *q) { return 0; }\n"); info != nil {
		t.Error("an added signature entered a new struct, and the check kept its result")
	}
}
