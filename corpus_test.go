package regionwiz

import (
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

// TestCorpusBothBackendsAgree runs one executable per package through
// both pair-computation backends and compares warning counts.
func TestCorpusBothBackendsAgree(t *testing.T) {
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 77)
		exe := pkg.Exes[0]
		exp, err := core.AnalyzeSource(core.Options{Solver: core.SolverOptions{Backend: core.ExplicitBackend}}, pkg.SourcesFor(exe))
		if err != nil {
			t.Fatalf("%s: %v", exe.Name, err)
		}
		bdd, err := core.AnalyzeSource(core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend}}, pkg.SourcesFor(exe))
		if err != nil {
			t.Fatalf("%s (bdd): %v", exe.Name, err)
		}
		if len(exp.Report.Warnings) != len(bdd.Report.Warnings) {
			t.Errorf("%s: explicit %d vs bdd %d warnings",
				exe.Name, len(exp.Report.Warnings), len(bdd.Report.Warnings))
		}
	}
}
