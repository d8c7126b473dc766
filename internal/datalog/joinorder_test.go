package datalog

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestJoinOrderPlansLongBodies pins derive's join plan: the smallest
// positive atom first, then the smallest atom sharing a bound
// variable, ties by body index; bodies of at most two positive atoms
// keep body order.
func TestJoinOrderPlansLongBodies(t *testing.T) {
	p := NewProgram()
	d := p.Domain("N", 16)
	big := p.Relation("big", d.At(0), d.At(1))
	mid := p.Relation("mid", d.At(0), d.At(1))
	tiny := p.Relation("tiny", d.At(0), d.At(1))
	other := p.Relation("other", d.At(0))
	out := p.Relation("out", d.At(0), d.At(1))
	for i := uint64(0); i < 12; i++ {
		big.Add(i, i+1)
		big.Add(i+1, i)
	}
	for i := uint64(0); i < 5; i++ {
		mid.Add(i, i)
	}
	tiny.Add(3, 3)
	other.Add(1)
	other.Add(2)

	for _, tc := range []struct {
		name string
		rule *Rule
		want []int
	}{
		{
			// tiny binds x and y; mid(x,x) and big(y,z) share them and
			// go before the smaller but unconnected other(w).
			"connected before smaller",
			NewRule(T(out, "x", "z"),
				T(big, "y", "z"), T(other, "w"), T(tiny, "x", "y"), T(mid, "x", "x")),
			[]int{2, 3, 0, 1},
		},
		{
			// Two equal-sized atoms: the earlier body index goes first.
			"ties by body index",
			NewRule(T(out, "x", "y"), T(big, "x", "y"), T(mid, "x", "y"), T(mid, "y", "x")),
			[]int{1, 2, 0},
		},
		{
			// Negated atoms are not planned.
			"two positive atoms keep body order",
			NewRule(T(out, "x", "y"), T(big, "x", "y"), N(mid, "x", "y"), T(tiny, "x", "y")),
			[]int{0, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := p.joinOrder(tc.rule, p.evalScratch(), -1, 0)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("join order = %v, want %v", got, tc.want)
			}
		})
	}

	// A delta overriding an atom is sized by the delta: a one-tuple
	// delta of big goes first.
	rule := NewRule(T(out, "x", "z"), T(mid, "x", "y"), T(big, "y", "z"), T(mid, "z", "z"))
	delta := big.tupleBDD([]uint64{4, 4})
	if got, want := p.joinOrder(rule, p.evalScratch(), 1, delta), []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delta join order = %v, want %v", got, want)
	}
}

// randomJoinProgram builds one random stratum over a fresh program:
// base relations with random tuples, a fully computed relation the
// rules negate, and rules of three or four positive atoms with shared
// variables, wildcards, Bind constants, recursive atoms over the
// derived relations, and one stratified negated atom each. The same
// seed always builds the same program.
func randomJoinProgram(seed int64) (*Program, []*Rule, []*Relation) {
	const n = 8
	r := rand.New(rand.NewSource(seed))
	p := NewProgram()
	d := p.Domain("N", n)
	base := []*Relation{
		p.Relation("a", d.At(0), d.At(1)),
		p.Relation("b", d.At(0), d.At(1)),
		p.Relation("c", d.At(0)),
	}
	neg := p.Relation("neg", d.At(0), d.At(1))
	heads := []*Relation{
		p.Relation("h", d.At(0), d.At(1)),
		p.Relation("k", d.At(0), d.At(1)),
	}
	for _, rel := range append(base, neg) {
		for i := r.Intn(14); i >= 0; i-- {
			vals := make([]uint64, rel.Arity())
			for j := range vals {
				vals[j] = uint64(r.Intn(n))
			}
			rel.Add(vals...)
		}
	}
	// Each derived relation is seeded from a base relation, so the
	// recursive atoms below have tuples to join.
	rules := []*Rule{
		NewRule(T(heads[0], "x", "y"), T(base[0], "x", "y")),
		NewRule(T(heads[1], "x", "y"), T(base[1], "y", "x")),
	}
	rels := append(base[:len(base):len(base)], heads...)
	vars := []string{"x", "y", "z", "w"}
	pickVar := func() string {
		if r.Intn(5) == 0 {
			return Wildcard
		}
		return vars[r.Intn(len(vars))]
	}
	for len(rules) < 5 {
		atoms := 3 + r.Intn(2)
		body := make([]Term, 0, atoms+1)
		bound := make(map[string]bool)
		for i := 0; i < atoms; i++ {
			rel := rels[r.Intn(len(rels))]
			t := T(rel, make([]string, rel.Arity())...)
			for j := range t.Vars {
				t.Vars[j] = pickVar()
				if t.Vars[j] != Wildcard {
					bound[t.Vars[j]] = true
				}
			}
			if r.Intn(4) == 0 {
				t = t.Bind(r.Intn(rel.Arity()), uint64(r.Intn(n)))
			}
			body = append(body, t)
		}
		var free []string
		for _, v := range vars {
			if bound[v] {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		pick := func() string { return free[r.Intn(len(free))] }
		body = append(body, N(neg, pick(), Wildcard))
		// Move the negated atom to a random body position: the planner
		// must skip it wherever it sits.
		at := r.Intn(len(body))
		body[at], body[len(body)-1] = body[len(body)-1], body[at]
		rules = append(rules, NewRule(T(heads[r.Intn(len(heads))], pick(), pick()), body...))
	}
	return p, rules, append(append(base, neg), heads...)
}

// TestPropertyPlannedJoinMatchesExplicit checks the planned BDD join
// against the reference evaluator, which joins naively in body order:
// on random rules both derive identical tuples. Two identical BDD
// solves also leave identical kernel counters, so planning keeps them
// deterministic.
func TestPropertyPlannedJoinMatchesExplicit(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p, rules, rels := randomJoinProgram(seed)
		ref := newRefDB(rels...)
		if _, fix := p.SolveSemiNaive(context.Background(), rules, 0); !fix {
			t.Fatalf("seed %d: BDD solve reached no fixpoint", seed)
		}
		ref.solve(rules)
		for _, rel := range rels {
			got, want := rel.Tuples(), ref.tuples(rel)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s differs\nbdd:       %v\nreference: %v", seed, rel.Name, got, want)
			}
		}

		p2, rules2, _ := randomJoinProgram(seed)
		p2.SolveSemiNaive(context.Background(), rules2, 0)
		if s1, s2 := p.M.Stats(), p2.M.Stats(); s1 != s2 {
			t.Fatalf("seed %d: identical solves left different kernel stats\n%+v\n%+v", seed, s1, s2)
		}
	}
}
