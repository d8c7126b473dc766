package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestBDDPairsEvaluatesEachJoinOnce pins the shape of one traced BDD
// pairs run: every stratum is solved semi-naively, so the two
// non-recursive strata evaluate their rule exactly once (no naive
// datalog.solve round that re-derives nothing), and load and extract
// have their own spans next to the three stratum spans.
func TestBDDPairsEvaluatesEachJoinOnce(t *testing.T) {
	tracer := trace.New()
	ctx := trace.WithTracer(context.Background(), tracer)
	opts := Options{Solver: SolverOptions{Backend: BDDBackend}}
	a, err := AnalyzeSourceContext(ctx, opts, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Stats.OPairs == 0 {
		t.Fatal("fixture derives no object pairs; the join would be vacuous")
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name  string         `json:"name"`
		Attrs map[string]any `json:"args"`
	}
	var doc struct {
		Events []rec `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// A span carries its span_id and, below a root, its parent_span; an
	// instant event carries only the parent.
	id := func(r rec, key string) float64 { n, _ := r.Attrs[key].(float64); return n }
	recs := doc.Events
	byID := make(map[float64]rec)
	count := make(map[string]int)
	for _, r := range recs {
		if n := id(r, "span_id"); n != 0 {
			byID[n] = r
		}
		count[r.Name]++
	}
	// underStratum names the pairs.stratum:* span r runs under, if any.
	underStratum := func(r rec) string {
		for p, ok := byID[id(r, "parent_span")]; ok; p, ok = byID[id(p, "parent_span")] {
			if strings.HasPrefix(p.Name, "pairs.stratum:") {
				return p.Name
			}
		}
		return ""
	}

	for _, name := range []string{
		"pairs.load", "pairs.stratum:leq", "pairs.stratum:regionPair",
		"pairs.stratum:objectPair", "pairs.extract",
		"rule:regionPair:-region,region,!leq",
		"rule:objectPair:-regionPair,own,own,access",
	} {
		if count[name] != 1 {
			t.Errorf("%q spans = %d, want 1", name, count[name])
		}
	}
	for _, r := range recs {
		s := underStratum(r)
		switch {
		case s == "":
		case r.Name == "datalog.solve":
			t.Errorf("naive datalog.solve span under %s", s)
		case r.Name == "datalog.seminaive" && s != "pairs.stratum:leq":
			if got := r.Attrs["rounds"]; got != float64(1) {
				t.Errorf("%s solved in %v rounds, want 1", s, got)
			}
		}
	}
}
