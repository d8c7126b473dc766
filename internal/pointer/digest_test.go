package pointer_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/pointer"
	"repro/internal/workloads"
)

// pointsToDigestFile holds the SHA-256 of the seed-1 paper corpus's
// points-to solutions as writePointsTo writes them.
const pointsToDigestFile = "testdata/corpus_pts.sha256"

// TestCorpusPointsToDigest: every program of the seed-1 paper corpus,
// under each of the oracle's configurations, solves to the same
// points-to state as when the digest was recorded: the objects in ID
// order, the solver's statistics, every reachable variable's set in
// every context, every heap edge, and the object allocated at every
// call site in every context. Set REGIONWIZ_UPDATE_DIGEST=1 to
// rewrite the digest after an intended change to the solution.
func TestCorpusPointsToDigest(t *testing.T) {
	h := sha256.New()
	for _, cfg := range oracle.DefaultConfigs() {
		for _, spec := range workloads.PaperCorpus() {
			pkg := workloads.Generate(spec, 1)
			for _, exe := range pkg.Exes {
				a, err := core.AnalyzeSourceContext(context.Background(), cfg.Opts, pkg.SourcesFor(exe))
				if err != nil {
					t.Fatalf("%s %s: %v", cfg.Name, exe.Name, err)
				}
				fmt.Fprintf(h, "program %s %s\n", cfg.Name, exe.Name)
				writePointsTo(h, a.Ptr)
			}
		}
	}
	got := fmt.Sprintf("%x\n", h.Sum(nil))
	if os.Getenv("REGIONWIZ_UPDATE_DIGEST") != "" {
		if err := os.WriteFile(pointsToDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pointsToDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("corpus points-to digest is %s, want %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// writePointsTo writes r's solution to w in a fixed order.
func writePointsTo(w io.Writer, r *pointer.Result) {
	for id, o := range r.Objects {
		fmt.Fprintf(w, "obj %d %d %d %d %d %d %s\n", id, o.Kind, o.Ctx, o.Site, o.Var, o.Str, o.Fn)
	}
	stats := r.SolverStats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "stat %s %d\n", k, stats[k])
	}
	writeSet := func(v int32, ctx uint64) {
		if locs := r.PointsTo(v, ctx); len(locs) > 0 {
			fmt.Fprintf(w, "pts %d %d %v\n", v, ctx, locs)
		}
	}
	for v := int32(0); v < r.Prog.NumGlobals(); v++ {
		writeSet(v, 0)
	}
	n := r.Numbering
	for _, fn := range n.G.ReachableFuncs() {
		f := r.Prog.Funcs[fn]
		if f == nil {
			continue
		}
		for ctx := uint64(0); ctx < n.Count[fn]; ctx++ {
			for v := f.VarFirst; v < f.VarEnd; v++ {
				writeSet(v, ctx)
			}
			c := r.Prog.Cursor(f.First, f.End)
			for c.Next() {
				if c.Inst.Op != ir.Call {
					continue
				}
				if obj := r.AllocObjAt(ctx, c.Inst.ID); obj >= 0 {
					fmt.Fprintf(w, "alloc %d %d %d\n", ctx, c.Inst.ID, obj)
				}
			}
		}
	}
	r.EachHeap(func(obj int, off int64, l pointer.Loc) {
		fmt.Fprintf(w, "heap %d %d %v\n", obj, off, l)
	})
}
