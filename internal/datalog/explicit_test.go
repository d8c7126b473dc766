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
// rounds.
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

	p.SolveSemiNaive(context.Background(), leqRules)
	ref.solve(leqRules)
	p.SolveSemiNaive(context.Background(), pairRules)
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
