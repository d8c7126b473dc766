package datalog

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRelationBasics(t *testing.T) {
	p := NewProgram()
	d := p.Domain("D", 16)
	r := p.Relation("edge", d.At(0), d.At(1))
	if !r.Add(1, 2) {
		t.Fatal("first Add reported no change")
	}
	if r.Add(1, 2) {
		t.Fatal("duplicate Add reported change")
	}
	r.Add(2, 3)
	if !r.Has(1, 2) || !r.Has(2, 3) || r.Has(3, 1) {
		t.Fatal("Has mismatch")
	}
	if got := r.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestEachAndTuples(t *testing.T) {
	p := NewProgram()
	d := p.Domain("D", 100)
	r := p.Relation("r", d.At(0), d.At(1))
	want := [][]uint64{{0, 99}, {7, 42}, {50, 50}}
	for _, tp := range want {
		r.Add(tp...)
	}
	got := r.Tuples()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tuples = %v, want %v", got, want)
	}
	n := 0
	r.Each(func([]uint64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop ignored, %d calls", n)
	}
}

func TestTransitiveClosure(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 32)
	edge := p.Relation("edge", d.At(0), d.At(1))
	path := p.Relation("path", d.At(0), d.At(1))
	// Chain 0->1->2->...->9 plus a back edge 9->0 (cycle).
	for i := uint64(0); i < 9; i++ {
		edge.Add(i, i+1)
	}
	edge.Add(9, 0)
	rules := []*Rule{
		NewRule(T(path, "x", "y"), T(edge, "x", "y")),
		NewRule(T(path, "x", "z"), T(path, "x", "y"), T(edge, "y", "z")),
	}
	p.Solve(context.Background(), rules)
	// A 10-cycle's closure is complete: 100 pairs.
	if got := path.Count(); got != 100 {
		t.Fatalf("closure of 10-cycle has %d pairs, want 100", got)
	}
}

func TestPropertyClosureMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 12
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		p := NewProgram()
		d := p.Domain("N", n)
		edge := p.Relation("edge", d.At(0), d.At(1))
		path := p.Relation("path", d.At(0), d.At(1))
		for k := 0; k < 20; k++ {
			i, j := r.Intn(n), r.Intn(n)
			adj[i][j] = true
			edge.Add(uint64(i), uint64(j))
		}
		p.Solve(context.Background(), []*Rule{
			NewRule(T(path, "x", "y"), T(edge, "x", "y")),
			NewRule(T(path, "x", "z"), T(path, "x", "y"), T(path, "y", "z")),
		})
		// Floyd-Warshall reference.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if path.Has(uint64(i), uint64(j)) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNegation(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 8)
	node := p.Relation("node", d.At(0))
	edge := p.Relation("edge", d.At(0), d.At(1))
	start := p.Relation("start", d.At(0))
	unreachedFrom0 := p.Relation("unreached", d.At(0))
	reach := p.Relation("reach", d.At(0))
	for i := uint64(0); i < 5; i++ {
		node.Add(i)
	}
	start.Add(0)
	edge.Add(0, 1)
	edge.Add(1, 2)
	// 3,4 disconnected.
	p.Solve(context.Background(), []*Rule{
		NewRule(T(reach, "x"), T(start, "x")),
		NewRule(T(reach, "y"), T(reach, "x"), T(edge, "x", "y")),
	})
	p.Solve(context.Background(), []*Rule{
		NewRule(T(unreachedFrom0, "x"), T(node, "x"), N(reach, "x")),
	})
	want := [][]uint64{{3}, {4}}
	if got := unreachedFrom0.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 8)
	edge := p.Relation("edge", d.At(0), d.At(1))
	self := p.Relation("self", d.At(0))
	edge.Add(1, 1)
	edge.Add(1, 2)
	edge.Add(3, 3)
	p.Solve(context.Background(), []*Rule{
		NewRule(T(self, "x"), T(edge, "x", "x")),
	})
	want := [][]uint64{{1}, {3}}
	if got := self.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("self loops = %v, want %v", got, want)
	}
}

func TestJoinAcrossDomains(t *testing.T) {
	p := NewProgram()
	v := p.Domain("V", 16)
	h := p.Domain("H", 16)
	f := p.Domain("FLD", 8)
	// vP(v,h): variable points to heap object. heap(h,f,h2): field f of
	// h points to h2. load: x = y.f => vP(x, h2) if vP(y,h) and
	// heap(h,f,h2). Classic Andersen load rule expressed in datalog.
	vP := p.Relation("vP", v.At(0), h.At(0))
	hP := p.Relation("heap", h.At(0), f.At(0), h.At(1))
	load := p.Relation("load", v.At(0), v.At(1), f.At(0)) // x = y.f
	vP.Add(1, 10)
	hP.Add(10, 3, 11)
	hP.Add(10, 4, 12)
	load.Add(2, 1, 3) // v2 = v1.f3
	p.Solve(context.Background(), []*Rule{
		NewRule(T(vP, "x", "h2"), T(load, "x", "y", "f"), T(vP, "y", "h"), T(hP, "h", "f", "h2")),
	})
	if !vP.Has(2, 11) {
		t.Fatal("load rule failed to derive vP(2,11)")
	}
	if vP.Has(2, 12) {
		t.Fatal("load rule over-derived vP(2,12) (field insensitivity!)")
	}
}

func TestUnsafeNegationPanics(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 4)
	a := p.Relation("a", d.At(0))
	b := p.Relation("b", d.At(0))
	defer func() {
		if recover() == nil {
			t.Fatal("unsafe negation did not panic")
		}
	}()
	NewRule(T(a, "x"), N(b, "x"))
}

func TestDomainMismatchPanics(t *testing.T) {
	p := NewProgram()
	d1 := p.Domain("A", 4)
	d2 := p.Domain("B", 4)
	a := p.Relation("a", d1.At(0))
	b := p.Relation("b", d2.At(0))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-domain variable did not panic")
		}
	}()
	NewRule(T(a, "x"), T(b, "x"))
}

func TestRelationRedeclare(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 8)
	r1 := p.Relation("r", d.At(0))
	r2 := p.Relation("r", d.At(0))
	if r1 != r2 {
		t.Fatal("same-schema redeclare returned distinct relation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting redeclare did not panic")
		}
	}()
	p.Relation("r", d.At(1))
}

func TestSolveRoundCount(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 64)
	edge := p.Relation("edge", d.At(0), d.At(1))
	path := p.Relation("path", d.At(0), d.At(1))
	for i := uint64(0); i < 40; i++ {
		edge.Add(i, i+1)
	}
	rules := []*Rule{
		NewRule(T(path, "x", "y"), T(edge, "x", "y")),
		// Quadratic rule converges in O(log n) rounds.
		NewRule(T(path, "x", "z"), T(path, "x", "y"), T(path, "y", "z")),
	}
	rounds := p.Solve(context.Background(), rules)
	if rounds > 10 {
		t.Fatalf("doubling closure took %d rounds, expected <= 10", rounds)
	}
	if path.Count() != 41*40/2 {
		t.Fatalf("path count = %d, want %d", path.Count(), 41*40/2)
	}
}

func TestCountManyFreeVariables(t *testing.T) {
	// A 16-bit domain allocates its instance batches (schema + scratch)
	// in one interleaved block of well over 64 variables, so Count on a
	// single-column relation divides SatCount by 2^free with free > 64
	// — exercising the exact power-of-two scaling.
	p := NewProgram()
	d := p.Domain("A", 1<<16)
	r := p.Relation("r", d.At(0))
	r.Add(0)
	r.Add(12345)
	r.Add(65535)
	if free := p.M.NumVars() - 16; free <= 64 {
		t.Fatalf("expected more than 64 free variables, got %d", free)
	}
	if got := r.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}
