package pointer_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/pointer"
)

// FuzzSolverParity: on an oracle case analyzed context-insensitively
// (ContextCap 1, where heap cloning has a single context to clone
// into), the explicit solver and the relational AnalyzeBDD agree on
// every reachable variable's points-to set and on the number of heap
// edges. Objects are compared by value, since the two solvers intern
// them in different orders.
func FuzzSolverParity(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := oracle.NewCase(seed)
		a, err := core.AnalyzeSourceContext(context.Background(), core.Options{ContextCap: 1}, c.Sources)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		exp := a.Ptr
		bdd := pointer.AnalyzeBDD(context.Background(), a.Numbering, exp.Config)
		if got, want := bdd.HeapSize(), exp.HeapSize(); got != want {
			t.Errorf("%s: relational solver has %d heap edges, explicit %d", c.Name, got, want)
		}
		vars := make([]int32, 0, exp.Prog.NumVars())
		for v := int32(0); v < exp.Prog.NumGlobals(); v++ {
			vars = append(vars, v)
		}
		for _, fn := range a.Numbering.G.ReachableFuncs() {
			if f := exp.Prog.Funcs[fn]; f != nil {
				for v := f.VarFirst; v < f.VarEnd; v++ {
					vars = append(vars, v)
				}
			}
		}
		for _, v := range vars {
			got := canonLocs(bdd.Objects, bdd.PointsTo(v))
			want := canonLocs(exp.Objects, exp.PointsTo(v, 0))
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s: relational %v, explicit %v", c.Name, exp.Prog.VarName(v), got, want)
			}
		}
	})
}

// canonLocs names each location by its object's value and offset, in
// sorted order.
func canonLocs(objs []pointer.Obj, locs []pointer.Loc) []string {
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = fmt.Sprintf("%+v+%d", objs[l.Obj], l.Off)
	}
	slices.Sort(out)
	return out
}
