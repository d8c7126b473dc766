package contexts

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/ir"
)

// graph builds the call graph of src, rooted at main.
func graph(t *testing.T, src string) *callgraph.Graph {
	t.Helper()
	f, errs := cminor.Parse("test.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	info := cminor.Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("check: %v", info.Errors)
	}
	return callgraph.Build(ir.Lower(info, f), "main", nil)
}

func number(t *testing.T, src string, cap uint64) *Numbering {
	t.Helper()
	return Number(graph(t, src), cap)
}

func TestLinearChain(t *testing.T) {
	n := number(t, `
int c(void) { return 0; }
int b(void) { return c(); }
int a(void) { return b(); }
int main(void) { return a(); }`, 0)
	for _, fn := range []string{"main", "a", "b", "c"} {
		if n.Count[fn] != 1 {
			t.Fatalf("%s has %d contexts, want 1", fn, n.Count[fn])
		}
	}
}

func TestDiamondMultipliesPaths(t *testing.T) {
	// main calls left and right; both call shared. shared has 2 call
	// paths, so 2 contexts.
	n := number(t, `
int shared(void) { return 0; }
int left(void) { return shared(); }
int right(void) { return shared(); }
int main(void) { return left() + right(); }`, 0)
	if n.Count["shared"] != 2 {
		t.Fatalf("shared has %d contexts, want 2", n.Count["shared"])
	}
	if n.Count["left"] != 1 || n.Count["right"] != 1 {
		t.Fatalf("left/right contexts: %d/%d", n.Count["left"], n.Count["right"])
	}
}

func TestPathExplosionIsExponential(t *testing.T) {
	// Each level calls the next twice: 2^k paths at depth k.
	n := number(t, `
int f4(void) { return 0; }
int f3(void) { return f4() + f4(); }
int f2(void) { return f3() + f3(); }
int f1(void) { return f2() + f2(); }
int main(void) { return f1() + f1(); }`, 0)
	want := map[string]uint64{"f1": 2, "f2": 4, "f3": 8, "f4": 16}
	for fn, w := range want {
		if n.Count[fn] != w {
			t.Fatalf("%s has %d contexts, want %d", fn, n.Count[fn], w)
		}
	}
}

func TestDistinctContextsForDistinctPaths(t *testing.T) {
	n := number(t, `
int shared(void) { return 0; }
int left(void) { return shared(); }
int right(void) { return shared(); }
int main(void) { return left() + right(); }`, 0)
	// The two edges into shared must map main's context 0 to two
	// different shared contexts.
	var edges []Edge
	for e := range n.Offset {
		if e.Callee == "shared" {
			edges = append(edges, e)
		}
	}
	if len(edges) != 2 {
		t.Fatalf("%d cross edges into shared, want 2", len(edges))
	}
	c0 := n.MapContext("left", 0, edges[0])
	c1 := n.MapContext("right", 0, edges[1])
	if c0 == c1 {
		t.Fatalf("distinct call paths map to same context %d", c0)
	}
}

func TestRecursionCollapsesToSCC(t *testing.T) {
	n := number(t, `
int odd(int v);
int even(int v) { if (v == 0) return 1; return odd(v - 1); }
int odd(int v) { if (v == 0) return 0; return even(v - 1); }
int main(void) { return even(4); }`, 0)
	if n.SCC["even"] != n.SCC["odd"] {
		t.Fatal("mutually recursive functions in different SCCs")
	}
	if n.Count["even"] != 1 || n.Count["odd"] != 1 {
		t.Fatalf("SCC contexts: even=%d odd=%d, want 1/1", n.Count["even"], n.Count["odd"])
	}
	// Intra-SCC mapping is identity.
	var e Edge
	for _, edge := range n.callEdges("even") {
		if edge.Callee == "odd" {
			e = edge
		}
	}
	if got := n.MapContext("even", 0, e); got != 0 {
		t.Fatalf("intra-SCC context map = %d, want 0", got)
	}
}

// TestMapContextUnreachableCallee: a function outside the reachable
// graph has no component, so a call edge into it is never taken for
// an intra-component one, and mapping through it yields a context
// rather than dividing by its zero count.
func TestMapContextUnreachableCallee(t *testing.T) {
	n := number(t, `int dead(void) { return 0; } int main(void) { return 0; }`, 0)
	if _, ok := n.SCC["dead"]; ok {
		t.Fatal("unreachable function has a component")
	}
	e := Edge{Callee: "dead"}
	if got := n.MapContext("main", 0, e); got != 0 {
		t.Fatalf("context map into an unreachable function = %d, want 0", got)
	}
	if off, mod, ok := n.EdgeMap("main", e); !ok || Shift(3, off, mod) != n.MapContext("main", 3, e) {
		t.Fatalf("EdgeMap = (%d, %d, %t) disagrees with MapContext", off, mod, ok)
	}
}

func TestContextCap(t *testing.T) {
	n := number(t, `
int f4(void) { return 0; }
int f3(void) { return f4() + f4(); }
int f2(void) { return f3() + f3(); }
int f1(void) { return f2() + f2(); }
int main(void) { return f1() + f1(); }`, 4)
	if !n.Capped {
		t.Fatal("cap not reported")
	}
	for fn, c := range n.Count {
		if c > 4 {
			t.Fatalf("%s has %d contexts beyond cap", fn, c)
		}
	}
	// Mapped contexts stay in range.
	for e := range n.Offset {
		caller := ""
		for fn := range n.Count {
			for _, edge := range n.callEdges(fn) {
				if edge == e {
					caller = fn
				}
			}
		}
		if caller == "" {
			continue
		}
		for ctx := uint64(0); ctx < n.Count[caller]; ctx++ {
			if got := n.MapContext(caller, ctx, e); got >= n.Count[e.Callee] {
				t.Fatalf("mapped context %d out of range for %s (count %d)", got, e.Callee, n.Count[e.Callee])
			}
		}
	}
}

func TestTopologicalOrder(t *testing.T) {
	n := number(t, `
int leaf(void) { return 0; }
int mid(void) { return leaf(); }
int main(void) { return mid(); }`, 0)
	pos := make(map[string]int)
	for i, comp := range n.Order {
		for _, fn := range comp {
			pos[fn] = i
		}
	}
	if !(pos["main"] < pos["mid"] && pos["mid"] < pos["leaf"]) {
		t.Fatalf("order not topological: %v", n.Order)
	}
}

func TestTotals(t *testing.T) {
	n := number(t, `
int shared(void) { return 0; }
int left(void) { return shared(); }
int right(void) { return shared(); }
int main(void) { return left() + right(); }`, 0)
	if n.TotalContexts() != 5 { // main 1 + left 1 + right 1 + shared 2
		t.Fatalf("total contexts = %d, want 5", n.TotalContexts())
	}
	if n.MaxCount() != 2 {
		t.Fatalf("max count = %d, want 2", n.MaxCount())
	}
}
