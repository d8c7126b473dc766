package cminor_test

import (
	"testing"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

// BenchmarkParse lexes and parses every program of the seed-1
// paper-scale corpus (the programs perfbench's corpus-cold workload
// analyzes); one iteration is one pass over the corpus.
func BenchmarkParse(b *testing.B) {
	type file struct{ path, src string }
	var files []file
	var size int64
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, 1)
		for _, exe := range pkg.Exes {
			for path, src := range pkg.SourcesFor(exe) {
				files = append(files, file{path, src})
				size += int64(len(src))
			}
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			if _, errs := cminor.Parse(f.path, f.src); len(errs) != 0 {
				b.Fatalf("%s: %v", f.path, errs[0])
			}
		}
	}
}
