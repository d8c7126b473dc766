package cminor

import (
	"strings"
	"testing"
)

// sixTokens lexes to six tokens; its sixth, the second ';', is at 1:13.
const sixTokens = "int a; int b;"

// TestTokenBudgetAtLimit: a file that spends exactly the rest of the
// budget parses, and the budget is then spent.
func TestTokenBudgetAtLimit(t *testing.T) {
	if maxTokens < 16*114_005 {
		t.Fatalf("maxTokens = %d, want at least 16x the largest paper-corpus program", maxTokens)
	}
	b := TokenBudget{used: maxTokens - 6}
	f, errs := b.Parse("a.c", sixTokens)
	if len(errs) != 0 {
		t.Fatalf("parse at the limit: %v", errs)
	}
	if f.NumTokens != 6 || b.used != maxTokens {
		t.Fatalf("file charged %d tokens, budget used %d, want 6 and %d", f.NumTokens, b.used, maxTokens)
	}
}

// TestTokenBudgetPastLimit: one token more is a single parse error at
// the first token over budget — in the file that crosses the limit,
// even when earlier files spent most of it.
func TestTokenBudgetPastLimit(t *testing.T) {
	for _, tc := range []struct {
		left      int
		src       string
		line, col int32
	}{
		{5, sixTokens, 1, 13},
		{0, sixTokens, 1, 1},
		{2, "int\n  x\n    ;", 3, 5},
	} {
		b := TokenBudget{used: maxTokens - tc.left}
		_, errs := b.Parse("b.c", tc.src)
		if len(errs) != 1 {
			t.Fatalf("%d tokens left: %d errors, want 1: %v", tc.left, len(errs), errs)
		}
		if e := errs[0]; e.Pos.Line != tc.line || e.Pos.Col != tc.col || !strings.Contains(e.Msg, "tokens") {
			t.Errorf("%d tokens left: error %v, want a token budget error at %d:%d", tc.left, e, tc.line, tc.col)
		}
	}
}

// TestTokenBudgetReuse: a file parsed earlier is charged its tokens,
// and refused without charge when it does not fit.
func TestTokenBudgetReuse(t *testing.T) {
	f, errs := Parse("a.c", sixTokens)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	fits := TokenBudget{used: maxTokens - 6}
	if !fits.Reuse(f) || fits.used != maxTokens {
		t.Fatalf("reuse at the limit refused or mischarged (used %d)", fits.used)
	}
	over := TokenBudget{used: maxTokens - 5}
	if over.Reuse(f) || over.used != maxTokens-5 {
		t.Fatalf("reuse past the limit accepted or charged (used %d)", over.used)
	}
}
