package pointer_test

import (
	"context"
	"testing"

	"repro/internal/contexts"
	"repro/internal/core"
	"repro/internal/pointer"
	"repro/internal/workloads"
)

// corpusSolve is one seed-1 paper-corpus program ready to solve: its
// context numbering and the solver configuration core derives for it.
type corpusSolve struct {
	n   *contexts.Numbering
	cfg pointer.Config
}

// corpusSolves runs every seed-1 paper-corpus program through the
// phases before the pointer analysis, with default options.
func corpusSolves(tb testing.TB) []corpusSolve {
	tb.Helper()
	var out []corpusSolve
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, 1)
		for _, exe := range pkg.Exes {
			a, err := core.AnalyzeSource(core.Options{}, pkg.SourcesFor(exe))
			if err != nil {
				tb.Fatalf("%s: %v", exe.Name, err)
			}
			out = append(out, corpusSolve{a.Numbering, a.Ptr.Config})
		}
	}
	return out
}

// BenchmarkPointer solves the points-to analysis of every program of
// the seed-1 paper-scale corpus (the programs perfbench's corpus-cold
// workload analyzes); one iteration is one pass over the corpus, so
// ns/op, B/op and allocs/op are per pass.
func BenchmarkPointer(b *testing.B) {
	progs := corpusSolves(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := pointer.AnalyzeContext(ctx, p.n, p.cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
