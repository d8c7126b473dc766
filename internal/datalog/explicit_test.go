package datalog

import (
	"context"
	"reflect"
	"testing"
)

// These tests check the BDD engine against refDB, the explicit-tuple
// reference evaluator (reference_test.go).

// buildRegionProgram declares the paper's region-strata schema over a
// small synthetic region tree and loads its base facts.
//
// Tree (parent edges): 1->0, 2->1, 3->2, 4->2, 5->4 — a chain with a
// branch at 2, deep enough that transitive closure takes several
// rounds (the cutoff test needs the cap to actually bite).
func buildRegionProgram(t *testing.T) (*Program, map[string]*Relation) {
	t.Helper()
	p := NewProgram()
	R := p.Domain("R", 6)
	rels := map[string]*Relation{
		"region":     p.Relation("region", R.At(0)),
		"parent":     p.Relation("parent", R.At(0), R.At(1)),
		"leq":        p.Relation("leq", R.At(0), R.At(1)),
		"regionPair": p.Relation("regionPair", R.At(0), R.At(1)),
	}
	parents := map[uint64]uint64{1: 0, 2: 1, 3: 2, 4: 2, 5: 4}
	for i := uint64(0); i < 6; i++ {
		rels["region"].Add(i)
	}
	for c, par := range parents {
		rels["parent"].Add(c, par)
	}
	return p, rels
}

func regionRules(rels map[string]*Relation) (leqRules, pairRules []*Rule) {
	leqRules = []*Rule{
		NewRule(T(rels["leq"], "x", "x"), T(rels["region"], "x")),
		NewRule(T(rels["leq"], "x", "y"), T(rels["parent"], "x", "y")),
		NewRule(T(rels["leq"], "x", "z"), T(rels["leq"], "x", "y"), T(rels["parent"], "y", "z")),
	}
	pairRules = []*Rule{
		NewRule(T(rels["regionPair"], "x", "y"),
			T(rels["region"], "x"), T(rels["region"], "y"), N(rels["leq"], "x", "y")),
	}
	return
}

// TestExplicitMatchesBDD solves the paper's region strata on the BDD
// engine and the reference evaluator from identical base facts and
// requires tuple-identical results, including two facts checked by
// hand: leq(3,0) holds through the chain 3 -> 2 -> 1 -> 0, and the
// siblings 3 and 4 form a regionPair.
func TestExplicitMatchesBDD(t *testing.T) {
	p, rels := buildRegionProgram(t)
	leqRules, pairRules := regionRules(rels)
	ref := newRefDB(rels["region"], rels["parent"])

	p.SolveSemiNaive(context.Background(), leqRules, 0)
	ref.solve(leqRules)
	p.SolveSemiNaive(context.Background(), pairRules, 0)
	ref.solve(pairRules)

	for _, name := range []string{"region", "parent", "leq", "regionPair"} {
		if got, want := rels[name].Tuples(), ref.tuples(rels[name]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BDD %v, reference %v", name, got, want)
		}
	}
	if !rels["leq"].Has(3, 0) || !rels["regionPair"].Has(3, 4) || rels["regionPair"].Has(3, 0) {
		t.Errorf("leq(3,0)=%v regionPair(3,4)=%v regionPair(3,0)=%v, want true/true/false",
			rels["leq"].Has(3, 0), rels["regionPair"].Has(3, 4), rels["regionPair"].Has(3, 0))
	}
}

// TestExplicitCutoff pins the maxRounds contract against the reference:
// a one-round semi-naive solve stops at the cap, reports no fixpoint,
// and is a strict under-approximation of the full closure.
func TestExplicitCutoff(t *testing.T) {
	p, rels := buildRegionProgram(t)
	lr, _ := regionRules(rels)
	ref := newRefDB(rels["region"], rels["parent"])
	if rounds := ref.solve(lr); rounds <= 2 {
		t.Fatalf("reference closure of a depth-4 tree converged in %d round(s)", rounds)
	}
	full := ref.tuples(rels["leq"])

	rounds, fix := p.SolveSemiNaive(context.Background(), lr, 1)
	if rounds != 1 || fix {
		t.Errorf("capped solve: rounds=%d fixpoint=%v, want 1,false", rounds, fix)
	}
	capped := rels["leq"].Tuples()
	if len(capped) >= len(full) {
		t.Errorf("capped count %d not < full count %d", len(capped), len(full))
	}
	for _, tup := range capped {
		if !ref.has(rels["leq"], tup) {
			t.Errorf("capped solve derived leq%v, which the full closure lacks", tup)
		}
	}
}

// TestExplicitWildcardAndConst covers Bind constants and wildcard
// positions, including a wildcard in a negated atom (absence over every
// value): the BDD engine, the reference, and the hand-checked answer
// agree.
func TestExplicitWildcardAndConst(t *testing.T) {
	p := NewProgram()
	D := p.Domain("D", 8)
	edge := p.Relation("edge", D.At(0), D.At(1))
	sink := p.Relation("sink", D.At(0))
	fromZero := p.Relation("fromZero", D.At(0))
	for _, t2 := range [][2]uint64{{0, 1}, {0, 2}, {1, 3}, {2, 2}} {
		edge.Add(t2[0], t2[1])
	}
	rules := []*Rule{
		// fromZero(y) :- edge(0, y).
		NewRule(T(fromZero, "y"), T(edge, Wildcard, "y").Bind(0, 0)),
		// sink(x) :- !edge(x, _), edge(_, x). The negated atom comes
		// first in the body; evaluation must still bind x before it.
		NewRule(T(sink, "x"), N(edge, "x", Wildcard), T(edge, Wildcard, "x")),
	}
	ref := newRefDB(edge)
	ref.solve(rules)
	p.Solve(context.Background(), rules, 0)
	for rel, want := range map[*Relation][][]uint64{fromZero: {{1}, {2}}, sink: {{3}}} {
		if got := rel.Tuples(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BDD %v, want %v", rel.Name, got, want)
		}
		if got := ref.tuples(rel); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reference %v, want %v", rel.Name, got, want)
		}
	}
}
