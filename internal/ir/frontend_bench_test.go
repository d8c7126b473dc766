package ir

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

// BenchmarkFrontEnd parses, checks and lowers every program of the
// seed-1 paper-scale corpus (the programs perfbench's corpus-cold
// workload analyzes); one iteration is one pass over the corpus. Each
// layer's bytes allocated and wall time per pass are reported as
// custom metrics, so a front-end change shows which layer it moved.
func BenchmarkFrontEnd(b *testing.B) {
	type file struct{ path, src string }
	var progs [][]file
	var size int64
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, 1)
		for _, exe := range pkg.Exes {
			var prog []file
			for path, src := range pkg.SourcesFor(exe) {
				prog = append(prog, file{path, src})
				size += int64(len(src))
			}
			slices.SortFunc(prog, func(x, y file) int { return strings.Compare(x.path, y.path) })
			progs = append(progs, prog)
		}
	}
	const parse, check, lower = 0, 1, 2
	var ns [3]time.Duration
	var bytes [3]uint64
	var ms runtime.MemStats
	layer := func(k int, run func()) {
		runtime.ReadMemStats(&ms)
		before, start := ms.TotalAlloc, time.Now()
		run()
		ns[k] += time.Since(start)
		runtime.ReadMemStats(&ms)
		bytes[k] += ms.TotalAlloc - before
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			files := make([]*cminor.File, len(prog))
			layer(parse, func() {
				for k, f := range prog {
					var errs []*cminor.Error
					if files[k], errs = cminor.Parse(f.path, f.src); len(errs) != 0 {
						b.Fatalf("%s: %v", f.path, errs[0])
					}
				}
			})
			var info *cminor.Info
			layer(check, func() { info = cminor.Check(files...) })
			if len(info.Errors) != 0 {
				b.Fatalf("%s: %v", prog[0].path, info.Errors[0])
			}
			layer(lower, func() { Lower(info, files...) })
		}
	}
	for k, name := range []string{"parse", "check", "lower"} {
		b.ReportMetric(float64(bytes[k])/float64(b.N), name+"-B/op")
		b.ReportMetric(float64(ns[k].Nanoseconds())/float64(b.N), name+"-ns/op")
	}
}
