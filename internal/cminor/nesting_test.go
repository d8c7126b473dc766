package cminor_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/core"
	"repro/internal/ir"
)

// nestingShapes are the four inputs that once overflowed the goroutine
// stack: in Parse (parentheses and blocks), in Check (a
// left-associative sum) and in ir.Lower (prefix decrements). src(n)
// nests n levels at its deepest point, the return statement counting
// as one; col is the column of the token that goes one level too deep
// when n exceeds the budget; crash is the depth that killed the
// process before the budget existed.
var nestingShapes = []struct {
	name  string
	src   func(n int) string
	col   int
	crash int
}{
	{"parens",
		func(n int) string {
			return "int main(void) { return " + strings.Repeat("(", n-1) + "1" + strings.Repeat(")", n-1) + "; }"
		},
		len("int main(void) { return ") + cminor.MaxNesting, 1_000_000},
	{"blocks",
		func(n int) string {
			return "int main(void) { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }"
		},
		len("int main(void) { ") + cminor.MaxNesting + 1, 1_000_000},
	{"sum",
		func(n int) string { return "int main(void) { return 1" + strings.Repeat("+1", n-1) + "; }" },
		len("int main(void) { return 1") + 2*cminor.MaxNesting - 1, 3_000_000},
	{"decrements",
		// Each "--" lexes as one prefix decrement.
		func(n int) string { return "int main(void) { return " + strings.Repeat("--", n-1) + "1; }" },
		len("int main(void) { return ") + 2*cminor.MaxNesting - 1, 1_000_000},
}

// TestNestingAtLimit: at exactly the budget every stage — parse,
// check, lower and the whole analysis — accepts each shape.
func TestNestingAtLimit(t *testing.T) {
	for _, sh := range nestingShapes {
		src := sh.src(cminor.MaxNesting)
		f, errs := cminor.Parse("deep.c", src)
		if len(errs) != 0 {
			t.Fatalf("%s: parse: %v", sh.name, errs[0])
		}
		info := cminor.Check(f)
		if len(info.Errors) != 0 {
			t.Fatalf("%s: check: %v", sh.name, info.Errors[0])
		}
		ir.Lower(info, f)
		if _, err := core.AnalyzeSource(core.Options{}, map[string]string{"deep.c": src}); err != nil {
			t.Fatalf("%s: analyze: %v", sh.name, err)
		}
	}
}

// TestNestingPastLimit: one level more is a typed parse error at the
// token that went too deep, and so is the input that used to crash
// the process.
func TestNestingPastLimit(t *testing.T) {
	for _, sh := range nestingShapes {
		for _, n := range []int{cminor.MaxNesting + 1, sh.crash} {
			src := sh.src(n)
			_, errs := cminor.Parse("deep.c", src)
			if len(errs) != 1 {
				t.Fatalf("%s at %d: %d parse errors, want 1: %v", sh.name, n, len(errs), errs)
			}
			if pos := errs[0].Pos; pos.Line != 1 || int(pos.Col) != sh.col || !strings.Contains(errs[0].Msg, "nesting") {
				t.Errorf("%s at %d: error %v, want a nesting error at 1:%d", sh.name, n, errs[0], sh.col)
			}
			_, err := core.AnalyzeSource(core.Options{}, map[string]string{"deep.c": src})
			var aerr *core.Error
			if !errors.As(err, &aerr) || aerr.Kind != core.ErrParse {
				t.Errorf("%s at %d: analyze error %v, want ErrParse", sh.name, n, err)
			}
		}
	}
}

// TestNestingEveryConstruct nests each other budgeted construct a
// million levels deep; each must end in one nesting error.
func TestNestingEveryConstruct(t *testing.T) {
	const n = 1_000_000
	r := strings.Repeat
	for name, src := range map[string]string{
		"calls":        "int f(int x); int main(void) { return " + r("f(", n) + "1" + r(")", n) + "; }",
		"index":        "int main(void) { int *a; return " + r("a[", n) + "0" + r("]", n) + "; }",
		"arrows":       "struct s { struct s *n; }; int main(void) { struct s *p; p = p" + r("->n", n) + "; return 0; }",
		"postfix":      "int main(void) { int x; x" + r("++", n) + "; return 0; }",
		"assignments":  "int main(void) { int a; " + r("a=", n) + "1; return 0; }",
		"conditionals": "int main(void) { int a; return " + r("a?1:", n) + "1; }",
		"casts":        "int main(void) { return " + r("(int)", n) + "1; }",
		"sizeofs":      "int main(void) { return " + r("sizeof ", n) + "1; }",
		"ifs":          "int main(void) { " + r("if (1) ", n) + "return 0; return 1; }",
		"pointers":     "int main(void) { int " + r("*", n) + "x; return 0; }",
		"arrays":       "int x" + r("[1]", n) + ";",
		"params":       "int f(" + r("int (*)(", n) + "int" + r(")", n) + ");",
		"structs":      r("struct a { ", n) + "int x; " + r("} f;", n),
		"enum values":  "enum e { A = " + r("(", n) + "1" + r(")", n) + " };",
		// 40 struct bodies, each under 40 pointers: 1,640 levels in
		// all, though neither count alone is near the budget.
		"struct pointers": "typedef " + r("struct { ", 40) + "int x; " + r("} "+r("*", 40)+"f; ", 39) + "} " + r("*", 40) + "T;",
	} {
		_, errs := cminor.Parse("deep.c", src)
		if len(errs) != 1 || !strings.Contains(errs[0].Msg, "nesting") {
			t.Errorf("%s: errors %v, want one nesting error", name, errs)
		}
	}
}
