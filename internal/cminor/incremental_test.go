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
