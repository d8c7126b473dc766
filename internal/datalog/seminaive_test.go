package datalog

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestSemiNaiveMatchesNaiveClosure(t *testing.T) {
	build := func() (*Program, *Relation, *Relation) {
		p := NewProgram()
		d := p.Domain("N", 32)
		edge := p.Relation("edge", d.At(0), d.At(1))
		path := p.Relation("path", d.At(0), d.At(1))
		return p, edge, path
	}
	addEdges := func(edge *Relation, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < 40; k++ {
			edge.Add(uint64(r.Intn(32)), uint64(r.Intn(32)))
		}
	}
	rules := func(edge, path *Relation) []*Rule {
		return []*Rule{
			NewRule(T(path, "x", "y"), T(edge, "x", "y")),
			NewRule(T(path, "x", "z"), T(path, "x", "y"), T(edge, "y", "z")),
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		p1, e1, path1 := build()
		addEdges(e1, seed)
		p1.Solve(context.Background(), rules(e1, path1), 0)

		p2, e2, path2 := build()
		addEdges(e2, seed)
		p2.SolveSemiNaive(context.Background(), rules(e2, path2), 0)

		t1, t2 := path1.Tuples(), path2.Tuples()
		ref := newRefDB(e1)
		ref.solve(rules(e1, path1))
		if want := ref.tuples(path1); !reflect.DeepEqual(t1, want) {
			t.Fatalf("seed %d: naive BDD solve %v, reference %v", seed, t1, want)
		}
		if len(t1) != len(t2) {
			t.Fatalf("seed %d: naive %d tuples, semi-naive %d", seed, len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i][0] != t2[i][0] || t1[i][1] != t2[i][1] {
				t.Fatalf("seed %d: tuple %d differs", seed, i)
			}
		}
	}
}

func TestSemiNaiveQuadraticRule(t *testing.T) {
	// Two recursive atoms in one rule (path ∘ path): the per-atom
	// delta variants must still reach the full closure.
	p := NewProgram()
	d := p.Domain("N", 64)
	edge := p.Relation("edge", d.At(0), d.At(1))
	path := p.Relation("path", d.At(0), d.At(1))
	for i := uint64(0); i < 40; i++ {
		edge.Add(i, i+1)
	}
	p.SolveSemiNaive(context.Background(), []*Rule{
		NewRule(T(path, "x", "y"), T(edge, "x", "y")),
		NewRule(T(path, "x", "z"), T(path, "x", "y"), T(path, "y", "z")),
	}, 0)
	if got := path.Count(); got != 41*40/2 {
		t.Fatalf("closure count = %d, want %d", got, 41*40/2)
	}
}

func TestSemiNaiveNonRecursiveRunsOnce(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 8)
	a := p.Relation("a", d.At(0))
	b := p.Relation("b", d.At(0))
	a.Add(1)
	a.Add(2)
	tracer := trace.New()
	ctx := trace.WithTracer(context.Background(), tracer)
	// Even a one-round cap is not cut off: no body atom reads b, so
	// round 0 reaches the fixpoint and no empty second round runs.
	rounds, fixpoint := p.SolveSemiNaive(ctx, []*Rule{
		NewRule(T(b, "x"), T(a, "x")),
	}, 1)
	if rounds != 1 || !fixpoint {
		t.Fatalf("non-recursive rule: rounds=%d fixpoint=%v, want 1/true", rounds, fixpoint)
	}
	if got := tracer.Summary()["round"].Count; got != 1 {
		t.Fatalf("round spans = %d, want 1", got)
	}
	if b.Count() != 2 {
		t.Fatalf("b has %d tuples", b.Count())
	}

}

func TestSemiNaiveRejectsSameStratumNegation(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 8)
	a := p.Relation("a", d.At(0))
	b := p.Relation("b", d.At(0))
	a.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("same-stratum negation not rejected")
		}
	}()
	p.SolveSemiNaive(context.Background(), []*Rule{
		NewRule(T(b, "x"), T(a, "x"), N(b, "x")),
	}, 0)
}

func TestSemiNaiveWithStratifiedNegation(t *testing.T) {
	// Negation of an earlier stratum is fine.
	p := NewProgram()
	d := p.Domain("N", 8)
	node := p.Relation("node", d.At(0))
	edge := p.Relation("edge", d.At(0), d.At(1))
	reach := p.Relation("reach", d.At(0))
	dead := p.Relation("dead", d.At(0))
	for i := uint64(0); i < 6; i++ {
		node.Add(i)
	}
	edge.Add(0, 1)
	edge.Add(1, 2)
	p.SolveSemiNaive(context.Background(), []*Rule{
		NewRule(T(reach, "x"), T(node, "x").Bind(0, 0)),
		NewRule(T(reach, "y"), T(reach, "x"), T(edge, "x", "y")),
	}, 0)
	p.SolveSemiNaive(context.Background(), []*Rule{
		NewRule(T(dead, "x"), T(node, "x"), N(reach, "x")),
	}, 0)
	if dead.Count() != 3 { // 3, 4, 5
		t.Fatalf("dead = %v", dead.Tuples())
	}
}

func TestPropertySemiNaiveEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 16
		mk := func() (*Program, *Relation, *Relation, *Relation) {
			p := NewProgram()
			d := p.Domain("N", n)
			e := p.Relation("e", d.At(0), d.At(1))
			q := p.Relation("q", d.At(0), d.At(1))
			s := p.Relation("s", d.At(0))
			return p, e, q, s
		}
		p1, e1, q1, s1 := mk()
		p2, e2, q2, s2 := mk()
		for k := 0; k < 25; k++ {
			x, y := uint64(r.Intn(n)), uint64(r.Intn(n))
			e1.Add(x, y)
			e2.Add(x, y)
		}
		mkRules := func(e, q, s *Relation) []*Rule {
			return []*Rule{
				NewRule(T(q, "x", "y"), T(e, "x", "y")),
				NewRule(T(q, "x", "z"), T(q, "x", "y"), T(q, "y", "z")),
				NewRule(T(s, "x"), T(q, "x", "x")),
			}
		}
		p1.Solve(context.Background(), mkRules(e1, q1, s1), 0)
		p2.SolveSemiNaive(context.Background(), mkRules(e2, q2, s2), 0)
		a, b := q1.Tuples(), q2.Tuples()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
				return false
			}
		}
		sa, sb := s1.Tuples(), s2.Tuples()
		if len(sa) != len(sb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
