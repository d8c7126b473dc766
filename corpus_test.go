package regionwiz

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestCorpusRegression pins the full small-corpus outcome through the
// public facade: every executable of every package analyzes without
// error, planted true bugs are found, clean packages stay clean, and
// the Figure 8 totals hold. This is the repository's integration
// regression net — if any pipeline stage drifts, this fails first.
func TestCorpusRegression(t *testing.T) {
	wantHigh := map[string]int{
		"rcc": 1, "apache": 1, "freeswitch": 0,
		"jxta-c": 0, "lklftpd": 2, "subversion": 5,
	}
	wantWarnMin := map[string]int{
		"rcc": 1, "apache": 1, "freeswitch": 1,
		"jxta-c": 0, "lklftpd": 2, "subversion": 8,
	}
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		high, warnings := 0, 0
		for _, exe := range pkg.Exes {
			a, err := core.AnalyzeSource(core.Options{}, pkg.SourcesFor(exe))
			if err != nil {
				t.Fatalf("%s: %v", exe.Name, err)
			}
			high += a.Report.Stats.High
			warnings += len(a.Report.Warnings)
			// Every planted true bug must surface in this executable.
			planted := 0
			for _, plant := range exe.Plants {
				if plant.Pattern.TrueBug() {
					planted++
				}
			}
			if len(a.Report.Warnings) < planted {
				t.Errorf("%s: %d warnings < %d planted true bugs",
					exe.Name, len(a.Report.Warnings), planted)
			}
		}
		if high != wantHigh[spec.Name] {
			t.Errorf("%s: high-ranked = %d, want %d", spec.Name, high, wantHigh[spec.Name])
		}
		if warnings < wantWarnMin[spec.Name] {
			t.Errorf("%s: warnings = %d, want >= %d", spec.Name, warnings, wantWarnMin[spec.Name])
		}
		if spec.Name == "jxta-c" && warnings != 0 {
			t.Errorf("jxta-c must stay clean, got %d warnings", warnings)
		}
	}
}

// TestCorpusBothBackendsAgree runs every executable of every package
// through the explicit and the BDD backend. Both must produce
// byte-identical canonical report JSON (Time and Phases zeroed: they hold wall times and
// backend-specific counters). On top of the reports it gates the two
// answer surfaces read from a finished analysis:
//
//   - explanations: explicit and BDD emit byte-identical documents,
//     one per warning, every tree at least two levels deep and
//     bottoming out in base facts with source positions;
//   - pair queries: on explicit and BDD, every reported site pair
//     queries inconsistent with object pairs, and every reversal the
//     report does not also carry queries consistent.
//
// Seed 2008 is the corpus regionbench analyzes by default; seed 77
// adds a second draw.
func TestCorpusBothBackendsAgree(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"explicit", core.Options{Solver: core.SolverOptions{Backend: core.ExplicitBackend}}},
		{"bdd", core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend}}},
	}
	ctx := context.Background()
	// Corpus-wide totals, so the explain and query gates cannot pass
	// vacuously.
	var explained, positive, negative int
	for _, seed := range []int64{2008, 77} {
		for _, spec := range workloads.SmallCorpus() {
			pkg := workloads.Generate(spec, seed)
			for _, exe := range pkg.Exes {
				var baseReport, baseExplain []byte
				for _, cfg := range configs {
					label := fmt.Sprintf("seed %d %s (%s)", seed, exe.Name, cfg.name)
					a, err := core.AnalyzeSource(cfg.opts, pkg.SourcesFor(exe))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					report := canonicalReport(t, a.Report)
					if baseReport == nil {
						baseReport = report
					} else if !bytes.Equal(report, baseReport) {
						t.Errorf("%s: report diverged from explicit\nexplicit: %s\n%s: %s",
							label, baseReport, cfg.name, report)
					}
					doc := explainAll(ctx, t, label, a)
					explained += len(a.Report.Warnings)
					if baseExplain == nil {
						baseExplain = doc
					} else if !bytes.Equal(doc, baseExplain) {
						t.Errorf("%s: explanation document diverged from explicit", label)
					}
					p, n := checkPairQueries(ctx, t, label, a)
					positive += p
					negative += n
				}
			}
		}
	}
	if explained == 0 || positive == 0 || negative == 0 {
		t.Errorf("gates ran vacuously: %d warnings explained, %d positive and %d negative queries",
			explained, positive, negative)
	}
}

// TestPaperScaleTableGrowth pins that node-table growth does not change
// reports. The small corpus fits the BDD kernel's default 8192-node
// table, so it never grows there; paper-scale freeswitch outgrows it
// (≈15k nodes at seeds 1 and 2008). The BDD report must equal the
// explicit backend's byte for byte.
func TestPaperScaleTableGrowth(t *testing.T) {
	var spec workloads.Spec
	for _, s := range workloads.PaperCorpus() {
		if s.Name == "freeswitch" {
			spec = s
		}
	}
	for _, seed := range []int64{1, 2008} {
		pkg := workloads.Generate(spec, seed)
		exe := pkg.Exes[0]
		exp, err := core.AnalyzeSource(core.Options{}, pkg.SourcesFor(exe))
		if err != nil {
			t.Fatalf("seed %d %s explicit: %v", seed, exe.Name, err)
		}
		bdd, err := core.AnalyzeSource(core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend}}, pkg.SourcesFor(exe))
		if err != nil {
			t.Fatalf("seed %d %s bdd: %v", seed, exe.Name, err)
		}
		if grows := pairsOutput(t, bdd.Report, "bdd_table_grows"); grows < 1 {
			t.Errorf("seed %d %s: bdd_table_grows = %d, want >= 1 (growth not exercised)", seed, exe.Name, grows)
		}
		if want, got := canonicalReport(t, exp.Report), canonicalReport(t, bdd.Report); !bytes.Equal(got, want) {
			t.Errorf("seed %d %s: BDD report diverged from explicit\nexplicit: %s\nbdd: %s", seed, exe.Name, want, got)
		}
	}
}

// pairsOutput reads one output counter of the report's pairs phase.
func pairsOutput(t *testing.T, r *core.Report, key string) int64 {
	t.Helper()
	for _, p := range r.Stats.Phases {
		if p.Name == core.PhasePairs {
			return p.Outputs[key]
		}
	}
	t.Fatal("report has no pairs phase")
	return 0
}

// canonicalReport is the report's JSON with the volatile stats (wall
// time, per-phase metrics) zeroed.
func canonicalReport(t *testing.T, r *core.Report) []byte {
	t.Helper()
	c := *r
	c.Stats.Time, c.Stats.Phases = 0, nil
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// explainAll explains every warning of a, checks each tree is grounded,
// and returns the explanation document.
func explainAll(ctx context.Context, t *testing.T, label string, a *core.Analysis) []byte {
	t.Helper()
	exps, err := a.Explain(ctx, 0)
	if err != nil {
		t.Fatalf("%s: explain: %v", label, err)
	}
	if len(exps) != len(a.Report.Warnings) {
		t.Errorf("%s: %d explanations for %d warnings", label, len(exps), len(a.Report.Warnings))
	}
	for _, e := range exps {
		if e.Schema != core.ExplainSchemaV1 {
			t.Errorf("%s: warning %d: schema %q", label, e.Warning, e.Schema)
		}
		if e.Tree == nil {
			t.Errorf("%s: warning %d: no derivation tree", label, e.Warning)
			continue
		}
		if d := groundedDepth(t, fmt.Sprintf("%s: warning %d", label, e.Warning), e.Tree); d < 2 {
			t.Errorf("%s: warning %d: tree depth %d, want >= 2", label, e.Warning, d)
		}
	}
	doc, err := core.MarshalExplanations(exps)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// groundedDepth returns the depth of an explanation tree, flagging any
// leaf that is not a base fact with a source position.
func groundedDepth(t *testing.T, label string, n *core.ExplainNode) int {
	t.Helper()
	if len(n.Children) == 0 {
		if n.Kind != "base" {
			t.Errorf("%s: leaf %q has kind %q, not base", label, n.Fact, n.Kind)
		} else if n.Pos == "" {
			t.Errorf("%s: base leaf %q carries no source position", label, n.Fact)
		}
		return 1
	}
	depth := 0
	for _, c := range n.Children {
		depth = max(depth, groundedDepth(t, label, c))
	}
	return depth + 1
}

// checkPairQueries asks every reported site pair, and every reversal
// the report does not also carry, as a pair query against a. It
// returns how many of each it asked.
func checkPairQueries(ctx context.Context, t *testing.T, label string, a *core.Analysis) (positive, negative int) {
	t.Helper()
	sites := a.PairSites()
	reported := make(map[string]bool, len(sites))
	for _, ps := range sites {
		reported[ps.Src.String()+"|"+ps.Dst.String()] = true
	}
	for _, ps := range sites {
		src, dst := ps.Src.String(), ps.Dst.String()
		ans, err := a.QueryPair(ctx, src, dst)
		if err != nil {
			t.Fatalf("%s: query %s -> %s: %v", label, src, dst, err)
		}
		positive++
		if !ans.Inconsistent || ans.Pairs == 0 {
			t.Errorf("%s: query %s -> %s = inconsistent %v with %d object pairs, but the report warns",
				label, src, dst, ans.Inconsistent, ans.Pairs)
		}
		if reported[dst+"|"+src] {
			continue
		}
		rev, err := a.QueryPair(ctx, dst, src)
		if err != nil {
			t.Fatalf("%s: reverse query %s -> %s: %v", label, dst, src, err)
		}
		negative++
		if rev.Inconsistent {
			t.Errorf("%s: reverse query %s -> %s inconsistent, but the report has no such warning", label, dst, src)
		}
	}
	return positive, negative
}
