package regionwiz

import (
	"reflect"
	"testing"

	"repro/internal/bdd"
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
// through the explicit backend, the BDD backend at default sizing, and
// the BDD backend on its minimum node table (which doubles and rehashes
// constantly), and requires the same warning count and the same
// Report.Stats from all three. Time and Phases are excluded: they hold
// wall times and backend-specific counters. Seed 2008 is the corpus
// regionbench analyzes by default; seed 77 adds a second draw.
func TestCorpusBothBackendsAgree(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"explicit", core.Options{Solver: core.SolverOptions{Backend: core.ExplicitBackend}}},
		{"bdd", core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend}}},
		{"bdd-mintable", core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend, BDD: bdd.Config{NodeSize: 1}}}},
	}
	for _, seed := range []int64{2008, 77} {
		for _, spec := range workloads.SmallCorpus() {
			pkg := workloads.Generate(spec, seed)
			for _, exe := range pkg.Exes {
				var base *core.Analysis
				for _, cfg := range configs {
					a, err := core.AnalyzeSource(cfg.opts, pkg.SourcesFor(exe))
					if err != nil {
						t.Fatalf("seed %d %s (%s): %v", seed, exe.Name, cfg.name, err)
					}
					if base == nil {
						base = a
						continue
					}
					if len(a.Report.Warnings) != len(base.Report.Warnings) {
						t.Errorf("seed %d %s: explicit %d vs %s %d warnings",
							seed, exe.Name, len(base.Report.Warnings), cfg.name, len(a.Report.Warnings))
					}
					want, got := base.Report.Stats, a.Report.Stats
					want.Time, want.Phases = 0, nil
					got.Time, got.Phases = 0, nil
					if !reflect.DeepEqual(want, got) {
						t.Errorf("seed %d %s: stats diverged\nexplicit: %+v\n%s: %+v",
							seed, exe.Name, want, cfg.name, got)
					}
				}
			}
		}
	}
}
