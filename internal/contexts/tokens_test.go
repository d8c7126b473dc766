package contexts

import "testing"

func numberKCFA(t *testing.T, src string, k int, cap uint64) *Numbering {
	t.Helper()
	return NewKCFA(graph(t, src), k, cap)
}

const diamondSrc = `
int shared(void) { return 0; }
int left(void) { return shared(); }
int right(void) { return shared(); }
int main(void) { return left() + right(); }`

func TestKCFA1DistinguishesCallSites(t *testing.T) {
	n := numberKCFA(t, diamondSrc, 1, 0)
	// 1-CFA: shared's contexts are its two immediate call sites.
	if n.Count["shared"] != 2 {
		t.Fatalf("shared has %d contexts under 1-CFA, want 2", n.Count["shared"])
	}
	if n.Count["main"] != 1 {
		t.Fatalf("main has %d contexts", n.Count["main"])
	}
}

func TestKCFAMergesSharedSuffixes(t *testing.T) {
	// Two paths that end in the SAME final call site merge under
	// 1-CFA but stay separate under call-path numbering.
	src := `
int leaf(void) { return 0; }
int mid(void) { return leaf(); }
int a(void) { return mid(); }
int b(void) { return mid(); }
int main(void) { return a() + b(); }`
	k1 := numberKCFA(t, src, 1, 0)
	// leaf is always called from the single site in mid: one context.
	if k1.Count["leaf"] != 1 {
		t.Fatalf("1-CFA leaf contexts = %d, want 1 (suffix merge)", k1.Count["leaf"])
	}
	// Call-path numbering keeps the two paths apart.
	cp := number(t, src, 0)
	if cp.Count["leaf"] != 2 {
		t.Fatalf("call-path leaf contexts = %d, want 2", cp.Count["leaf"])
	}
	// 2-CFA recovers the distinction.
	k2 := numberKCFA(t, src, 2, 0)
	if k2.Count["leaf"] != 2 {
		t.Fatalf("2-CFA leaf contexts = %d, want 2", k2.Count["leaf"])
	}
}

func TestKCFARecursionTerminates(t *testing.T) {
	n := numberKCFA(t, `
int odd(int v);
int even(int v) { if (v == 0) return 1; return odd(v - 1); }
int odd(int v) { if (v == 0) return 0; return even(v - 1); }
int main(void) { return even(4); }`, 2, 0)
	// Recursive call strings are k-limited, so counts stay finite.
	if n.Count["even"] == 0 || n.Count["even"] > 4 {
		t.Fatalf("even contexts = %d", n.Count["even"])
	}
}

func TestKCFAMapContextConsistent(t *testing.T) {
	n := numberKCFA(t, diamondSrc, 1, 0)
	g := n.G
	// Every mapped context must be in range, and the two edges into
	// shared must map main's context to different callee contexts.
	var edges []Edge
	for _, fn := range []string{"left", "right"} {
		for _, in := range g.Prog.Funcs[fn].Instrs() {
			for _, callee := range g.Edges[in.ID] {
				if callee == "shared" {
					edges = append(edges, Edge{Instr: in.ID, Callee: callee})
				}
			}
		}
	}
	if len(edges) != 2 {
		t.Fatalf("%d edges into shared", len(edges))
	}
	c0 := n.MapContext("left", 0, edges[0])
	c1 := n.MapContext("right", 0, edges[1])
	if c0 == c1 {
		t.Fatal("1-CFA merged distinct call sites")
	}
	for _, c := range []uint64{c0, c1} {
		if c >= n.Count["shared"] {
			t.Fatalf("mapped context %d out of range", c)
		}
	}
}

func TestKCFACapMerges(t *testing.T) {
	// Exponential diamond chain; cap forces merging.
	src := `
int f3(void) { return 0; }
int f2(void) { return f3() + f3(); }
int f1(void) { return f2() + f2(); }
int main(void) { return f1() + f1(); }`
	n := numberKCFA(t, src, 3, 2)
	if !n.Capped {
		t.Fatal("cap not reported")
	}
	for fn, c := range n.Count {
		if c > 2 {
			t.Fatalf("%s has %d contexts beyond cap", fn, c)
		}
	}
}

// TestKCFACapOverflowDeterministic pins the overflow merging strategy:
// when a function's context count hits the cap, further call strings
// fold onto existing indices via hashString(cs) % cap — a pure
// function of the call string, independent of discovery order. Two
// independent numberings of the same program must therefore agree on
// every count and every edge mapping, and every mapped context must
// stay below the cap.
func TestKCFACapOverflowDeterministic(t *testing.T) {
	src := `
int f3(void) { return 0; }
int f2(void) { return f3() + f3(); }
int f1(void) { return f2() + f2(); }
int main(void) { return f1() + f1(); }`
	a := numberKCFA(t, src, 3, 2)
	b := numberKCFA(t, src, 3, 2)
	if !a.Capped || !b.Capped {
		t.Fatal("cap overflow not reported")
	}
	if len(a.Count) != len(b.Count) {
		t.Fatalf("count tables differ in size: %d vs %d", len(a.Count), len(b.Count))
	}
	for fn, c := range a.Count {
		if b.Count[fn] != c {
			t.Fatalf("%s: context count %d vs %d across numberings", fn, c, b.Count[fn])
		}
	}
	// Exhaustively map every (caller context, edge) pair through both
	// numberings.
	g := a.G
	for fn := range a.Count {
		f := g.Prog.Funcs[fn]
		if f == nil {
			continue
		}
		for _, in := range f.Instrs() {
			for _, callee := range g.Edges[in.ID] {
				e := Edge{Instr: in.ID, Callee: callee}
				for ctx := uint64(0); ctx < a.Count[fn]; ctx++ {
					ca := a.MapContext(fn, ctx, e)
					cb := b.MapContext(fn, ctx, e)
					if ca != cb {
						t.Fatalf("%s ctx %d edge %v: mapped to %d vs %d", fn, ctx, e, ca, cb)
					}
					if ca >= a.Count[callee] {
						t.Fatalf("%s ctx %d edge %v: mapped context %d out of range %d",
							fn, ctx, e, ca, a.Count[callee])
					}
				}
			}
		}
	}
}

// originSrc calls the origin function mk from two sites and the plain
// function plain from two more; mk calls helper.
const originSrc = `
int helper(void) { return 0; }
int mk(void) { return helper(); }
int plain(void) { return 0; }
int main(void) { return mk() + mk() + plain() + plain(); }`

func TestOriginSwitchesTokenAtOriginCalls(t *testing.T) {
	n := NewOrigin(graph(t, originSrc), 0, map[string]bool{"mk": true})
	// Each call into mk spawns its site's token, which helper
	// inherits; plain inherits main's single token from both sites.
	want := map[string]uint64{"main": 1, "mk": 2, "helper": 2, "plain": 1}
	for fn, w := range want {
		if n.Count[fn] != w {
			t.Errorf("%s has %d origin contexts, want %d", fn, n.Count[fn], w)
		}
	}
	if n.Capped {
		t.Error("uncapped origin numbering reports Capped")
	}
}

func TestOriginMapContext(t *testing.T) {
	n := NewOrigin(graph(t, originSrc), 0, map[string]bool{"mk": true})
	seen := map[string][]uint64{}
	for _, e := range n.callEdges("main") {
		seen[e.Callee] = append(seen[e.Callee], n.MapContext("main", 0, e))
	}
	if mk := seen["mk"]; len(mk) != 2 || mk[0] == mk[1] {
		t.Fatalf("the two mk call sites map to contexts %v, want two distinct", mk)
	}
	if plain := seen["plain"]; len(plain) != 2 || plain[0] != plain[1] {
		t.Fatalf("the two plain call sites map to contexts %v, want one", plain)
	}
	// helper inherits mk's token: mk's two contexts stay apart below it.
	edges := n.callEdges("mk")
	if len(edges) != 1 {
		t.Fatalf("mk has %d call edges, want 1", len(edges))
	}
	if n.MapContext("mk", 0, edges[0]) == n.MapContext("mk", 1, edges[0]) {
		t.Error("helper merged the contexts of two origins")
	}
	// A caller context the numbering never produced maps to 0.
	if got := n.MapContext("main", 7, n.callEdges("main")[0]); got != 0 {
		t.Errorf("out-of-range caller context mapped to %d, want 0", got)
	}
}

func TestOriginCapMerges(t *testing.T) {
	n := NewOrigin(graph(t, originSrc), 1, map[string]bool{"mk": true})
	if !n.Capped {
		t.Fatal("cap not reported")
	}
	for fn, c := range n.Count {
		if c != 1 {
			t.Errorf("%s has %d contexts under cap 1", fn, c)
		}
	}
}
