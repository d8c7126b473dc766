package core

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// BenchmarkDelta times one delta against a fixed base: the seed-1
// subversion executable split into eight files, on the BDD backend,
// with the two edit shapes of perfbench's edit-bdd workload. "body"
// adds a statement to a function body; "addremove" appends a function
// to a file and drops the one appended before it. Each iteration is
// one AnalyzeIncremental run; the check and lower phases' wall times
// are reported as check-ns/op and lower-ns/op.
func BenchmarkDelta(b *testing.B) {
	var spec workloads.Spec
	for _, s := range workloads.PaperCorpus() {
		if s.Name == "subversion" {
			spec = s
		}
	}
	pkg := workloads.Generate(spec, 1)
	sources := pkg.SplitSourcesFor(pkg.Exes[0], 8)
	const marker = "    return acc;\n}"
	var path string
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if strings.Contains(sources[p], marker) {
			path = p
			break
		}
	}
	if path == "" {
		b.Fatal("no file holds a filler function to edit")
	}
	appended := func(id string) string {
		return "int bench_edit_" + id + "(int x) {\n    return x + " + id + ";\n}\n\n"
	}
	orig := sources[path]
	sources[path] = orig + appended("1")
	opts := Options{Solver: SolverOptions{Backend: BDDBackend}}
	ctx := context.Background()
	base, err := AnalyzeSourceContext(ctx, opts, sources)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, src string }{
		{"body", strings.Replace(sources[path], marker, "    acc = acc + 1;\n"+marker, 1)},
		{"addremove", orig + appended("2")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			edited := base.Apply(map[string]string{path: bc.src}, nil)
			var check, lower time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := AnalyzeIncremental(ctx, opts, base, edited)
				if err != nil {
					b.Fatal(err)
				}
				for _, ph := range a.Report.Stats.Phases {
					switch ph.Name {
					case PhaseCheck:
						check += ph.Time
					case PhaseLower:
						lower += ph.Time
					}
				}
			}
			b.ReportMetric(float64(check.Nanoseconds())/float64(b.N), "check-ns/op")
			b.ReportMetric(float64(lower.Nanoseconds())/float64(b.N), "lower-ns/op")
		})
	}
}
