package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// explainSource produces two warnings (sibling regions with a
// cross-link in each direction), so tests exercise multi-warning
// explanation plus the high-rank path.
const explainSource = rcPrelude + `
struct obj { struct obj *p; };
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    r1 = rnew(NULL); r2 = rnew(NULL);
    o1 = ralloc(r1); o2 = ralloc(r2);
    o2->p = o1;
    o1->p = o2;
    return 0;
}`

// checkTreeShape asserts the structural contract CI's smoke job
// also checks: every path bottoms out in base facts, and every base
// leaf carries a non-empty source position.
func checkTreeShape(t *testing.T, n *ExplainNode) {
	t.Helper()
	switch n.Kind {
	case "base":
		if len(n.Children) != 0 {
			t.Errorf("base fact %s has children", n.Fact)
		}
		if n.Pos == "" {
			t.Errorf("base fact %s has no source position", n.Fact)
		}
	case "derived":
		if len(n.Children) == 0 {
			t.Errorf("derived fact %s has no premises", n.Fact)
		}
		if n.Rule == "" {
			t.Errorf("derived fact %s has no rule text", n.Fact)
		}
	case "negated":
		// A negated premise justifies an absence; its children (what
		// DOES hold) may legitimately be empty only if the region has
		// no ancestors at all, which cannot happen (leq is reflexive).
		if len(n.Children) == 0 {
			t.Errorf("negated fact %s has no justification", n.Fact)
		}
	default:
		t.Errorf("unknown node kind %q on %s", n.Kind, n.Fact)
	}
	for _, c := range n.Children {
		checkTreeShape(t, c)
	}
}

func TestExplainRecordedTree(t *testing.T) {
	a := runOpts(t, Options{}, explainSource)
	ex, err := a.Explainer(context.Background())
	if err != nil {
		t.Fatalf("explainer: %v", err)
	}
	exps, err := ex.ExplainAll(context.Background())
	if err != nil {
		t.Fatalf("explain all: %v", err)
	}
	if len(exps) != len(a.Report.Warnings) || len(exps) == 0 {
		t.Fatalf("explained %d of %d warnings", len(exps), len(a.Report.Warnings))
	}
	for i, e := range exps {
		if e.Warning != i+1 {
			t.Errorf("explanation %d has warning id %d", i, e.Warning)
		}
		if e.Schema != ExplainSchemaV1 {
			t.Errorf("schema = %q", e.Schema)
		}
		if e.Message != a.Report.Warnings[i].Message {
			t.Errorf("message mismatch for warning %d", i+1)
		}
		checkTreeShape(t, e.Tree)
		if got := e.String(); got == "" || !bytes.Contains([]byte(got), []byte("objectPair")) {
			t.Errorf("human rendering missing objectPair root:\n%s", got)
		}
	}
	// Out-of-range ids are config errors, not panics.
	if _, err := ex.Explain(context.Background(), 0); err == nil {
		t.Errorf("Explain(0) succeeded")
	}
	if _, err := ex.Explain(context.Background(), len(a.Report.Warnings)+1); err == nil {
		t.Errorf("Explain(out of range) succeeded")
	}
}

// TestExplainBackendParity pins the determinism contract: the BDD
// backend's explanations are byte-identical to the explicit
// backend's.
func TestExplainBackendParity(t *testing.T) {
	for i, src := range crossCheckSources {
		t.Run(fmt.Sprintf("src%d", i), func(t *testing.T) {
			exp := runOpts(t, Options{}, src)
			bdd := runOpts(t, Options{Solver: SolverOptions{Backend: BDDBackend}}, src)
			exExp, err := exp.Explainer(context.Background())
			if err != nil {
				t.Fatalf("explicit explainer: %v", err)
			}
			exBDD, err := bdd.Explainer(context.Background())
			if err != nil {
				t.Fatalf("bdd explainer: %v", err)
			}
			a, err := exExp.ExplainAll(context.Background())
			if err != nil {
				t.Fatalf("explicit explain: %v", err)
			}
			b, err := exBDD.ExplainAll(context.Background())
			if err != nil {
				t.Fatalf("bdd explain: %v", err)
			}
			ja, _ := MarshalExplanations(a)
			jb, _ := MarshalExplanations(b)
			if !bytes.Equal(ja, jb) {
				t.Errorf("explanations differ between backends:\n--- explicit ---\n%s\n--- bdd ---\n%s", ja, jb)
			}
		})
	}
}

// TestExplainWorkerDeterminism requires concurrent Explain calls on a
// shared Explainer to produce the same explanation bytes as one
// sequential ExplainAll pass, on both backends (run under -race in
// CI).
func TestExplainWorkerDeterminism(t *testing.T) {
	for _, backend := range []Backend{ExplicitBackend, BDDBackend} {
		a := runOpts(t, Options{Solver: SolverOptions{Backend: backend}}, explainSource)
		ex, err := a.Explainer(context.Background())
		if err != nil {
			t.Fatalf("backend=%d: %v", backend, err)
		}
		all, err := ex.ExplainAll(context.Background())
		if err != nil {
			t.Fatalf("backend=%d: %v", backend, err)
		}
		want, _ := MarshalExplanations(all)
		n := len(a.Report.Warnings)
		results := make([]*Explanation, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e, err := ex.Explain(context.Background(), i+1)
				if err != nil {
					t.Errorf("concurrent explain %d: %v", i+1, err)
					return
				}
				results[i] = e
			}(i)
		}
		wg.Wait()
		if got, _ := MarshalExplanations(results); !bytes.Equal(got, want) {
			t.Errorf("backend=%d: concurrent explanation bytes differ from ExplainAll", backend)
		}
	}
}

// TestReportUnchangedByProvenance pins that answering is read-only:
// explaining every warning and querying every reported site pair leave
// the report byte-identical (timing and the per-phase cost breakdown
// excluded, as in the oracle's canonical form), on both backends.
func TestReportUnchangedByProvenance(t *testing.T) {
	canonical := func(a *Analysis) []byte {
		r := *a.Report
		r.Stats.Time = 0
		r.Stats.Phases = nil
		j, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return j
	}
	ctx := context.Background()
	for _, backend := range []Backend{ExplicitBackend, BDDBackend} {
		a := runOpts(t, Options{Solver: SolverOptions{Backend: backend}}, explainSource)
		before := canonical(a)
		ex, err := a.Explainer(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ExplainAll(ctx); err != nil {
			t.Fatalf("backend=%d: %v", backend, err)
		}
		for _, ps := range a.PairSites() {
			if _, err := a.QueryPair(ctx, ps.Src.String(), ps.Dst.String()); err != nil {
				t.Fatalf("backend=%d: %v", backend, err)
			}
		}
		if after := canonical(a); !bytes.Equal(before, after) {
			t.Errorf("backend=%d: report changed by explain/query:\n--- before ---\n%s\n--- after ---\n%s", backend, before, after)
		}
	}
}

// TestBrokenEvidenceIsInternalError breaks a warning's evidence so it
// names a related region pair (the source owner and its own parent)
// and requires Explain and QueryPair to refuse with ErrInternal rather
// than explain or report a pair the region tree does not support.
func TestBrokenEvidenceIsInternalError(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []Backend{ExplicitBackend, BDDBackend} {
		a := runOpts(t, Options{Solver: SolverOptions{Backend: backend}}, explainSource)
		if len(a.Report.Warnings) == 0 || len(a.pairs) == 0 {
			t.Fatalf("backend=%d: fixture reports nothing", backend)
		}
		related := func(p ObjectPair) [2]int {
			x := p.Evidence[0]
			return [2]int{x, a.Regions[x].Parent}
		}
		w := &a.Report.Warnings[0]
		w.IPair.Example.Evidence = related(w.IPair.Example)
		ex, err := a.Explainer(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var aerr *Error
		_, err = ex.Explain(ctx, 1)
		if !errors.As(err, &aerr) || aerr.Kind != ErrInternal || !strings.Contains(err.Error(), "regionPair") {
			t.Errorf("backend=%d: Explain with related evidence: err = %v, want an ErrInternal naming regionPair", backend, err)
		}
		ps := a.PairSites()[0]
		for i, p := range a.pairs {
			if a.siteOf(p.Src) == w.IPair.SrcSite && a.siteOf(p.Dst) == w.IPair.DstSite {
				a.pairs[i].Evidence = related(p)
			}
		}
		_, err = a.QueryPair(ctx, ps.Src.String(), ps.Dst.String())
		if !errors.As(err, &aerr) || aerr.Kind != ErrInternal || !strings.Contains(err.Error(), "regionPair") {
			t.Errorf("backend=%d: QueryPair with related evidence: err = %v, want an ErrInternal naming regionPair", backend, err)
		}
	}
}
