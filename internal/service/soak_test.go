package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// soakSource generates a region-heavy program: a chain of regions with
// per-region allocations and cross-region stores (every third region
// starts a sibling chain, so the report carries real warnings). The
// variant index only changes a comment — every variant is structurally
// identical, so kernel footprints must match across variants exactly.
func soakSource(variant, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* soak variant %d */\n", variant)
	b.WriteString("typedef struct region_t region_t;\n")
	b.WriteString("extern region_t *rnew(region_t *parent);\n")
	b.WriteString("extern void *ralloc(region_t *r);\n")
	b.WriteString("struct node_t { struct node_t *next; };\n")
	b.WriteString("int main(void) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    region_t *r%d;\n    struct node_t *p%d;\n", i, i)
	}
	b.WriteString("    r0 = rnew(NULL);\n")
	b.WriteString("    p0 = ralloc(r0);\n")
	for i := 1; i < n; i++ {
		parent := fmt.Sprintf("r%d", i-1)
		if i%3 == 0 {
			parent = "NULL"
		}
		fmt.Fprintf(&b, "    r%d = rnew(%s);\n", i, parent)
		fmt.Fprintf(&b, "    p%d = ralloc(r%d);\n", i, i)
		fmt.Fprintf(&b, "    p%d->next = p%d;\n", i-1, i)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// pairsOutputs extracts the pairs phase's output counters from a
// report's JSON.
func pairsOutputs(t *testing.T, reportJSON []byte) map[string]int64 {
	t.Helper()
	var rpt struct {
		Stats struct {
			Phases []struct {
				Name    string           `json:"name"`
				Outputs map[string]int64 `json:"outputs"`
			} `json:"phases"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(reportJSON, &rpt); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	for _, p := range rpt.Stats.Phases {
		if p.Name == core.PhasePairs {
			return p.Outputs
		}
	}
	t.Fatal("report has no pairs phase")
	return nil
}

// TestSoakBoundedKernelFootprint is the daemon soak regression: many
// distinct analyze requests against one service, each running the BDD
// backend on a program large enough to grow the default node table,
// must show a bounded — here: exactly repeating — kernel node
// footprint. A leak across requests or table growth that changes
// results would break the per-request counters' equality. CI runs
// this under -race.
func TestSoakBoundedKernelFootprint(t *testing.T) {
	const requests = 55
	s := New(Config{Workers: 2, CacheEntries: 8})
	defer s.Close()
	ctx := context.Background()

	opts := core.Options{}
	opts.Solver.Backend = core.BDDBackend

	var first map[string]int64
	var firstWarnings int
	for i := 0; i < requests; i++ {
		src := map[string]string{fmt.Sprintf("soak%d.c", i): soakSource(i, 64)}
		res, err := s.Analyze(ctx, opts, src)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Cached {
			t.Fatalf("request %d unexpectedly served from cache (sources are distinct)", i)
		}
		outs := pairsOutputs(t, res.ReportJSON)
		var rpt struct {
			Warnings []json.RawMessage `json:"warnings"`
		}
		if err := json.Unmarshal(res.ReportJSON, &rpt); err != nil {
			t.Fatalf("request %d report: %v", i, err)
		}
		if outs["bdd_nodes"] == 0 {
			t.Fatalf("request %d: pairs phase reports no BDD nodes (backend not exercised?)", i)
		}
		if first == nil {
			first = outs
			firstWarnings = len(rpt.Warnings)
			if firstWarnings == 0 {
				t.Fatal("soak workload produced no warnings — not a meaningful analysis")
			}
			continue
		}
		for _, k := range []string{"bdd_nodes", "datalog_tuples", "bdd_table_grows"} {
			if outs[k] != first[k] {
				t.Fatalf("request %d: %s = %d, request 0 had %d — kernel footprint drifted across requests",
					i, k, outs[k], first[k])
			}
		}
		if len(rpt.Warnings) != firstWarnings {
			t.Fatalf("request %d: %d warnings, request 0 had %d", i, len(rpt.Warnings), firstWarnings)
		}
	}
	if first["bdd_table_grows"] == 0 {
		t.Fatalf("node table never grew — growth path not exercised (outputs %v)", first)
	}
}
