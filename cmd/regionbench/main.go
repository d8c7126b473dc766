// Command regionbench regenerates the paper's evaluation tables over
// the synthetic benchmark corpus (see DESIGN.md for the substitution
// notes — absolute numbers differ from the paper's corpus; the shape
// is what reproduces).
//
// Usage:
//
//	regionbench -table 7|8|11|all [-seed N] [-scale small|paper]
//	regionbench -json out.json [-jobs N]
//	regionbench -edit-loop N [-json out.json]
//	regionbench -kernel-bench [-benchtime Nx] [-json out.json]
//	regionbench -explain-bench [-json out.json]
//	regionbench -query-bench [-json out.json]
//	regionbench ... [-backend explicit|bdd]
//	regionbench ... [-bdd-node-size N] [-bdd-cache-ratio N]
//
// The -json mode analyzes every executable of the corpus through a
// bounded worker pool and writes per-phase, per-workload timings as a
// stable JSON document (schema regionbench/phase-timings/v1) suitable
// for trajectory tracking across commits. With -backend bdd the pairs
// phase runs on the BDD engine and its Outputs include the kernel
// counters (bdd_cache_hits, bdd_cache_misses, bdd_unique_collisions,
// bdd_table_grows), making the -json document a kernel-tuning probe.
//
// The -explain-bench mode measures the why-provenance subsystem over
// the whole corpus: explanation latency for the recorded path
// (explicit backend with Provenance on) against the two replay paths
// (explicit without recording, and the BDD backend), refusing to write
// numbers unless reports are byte-identical with recording on or off,
// all three paths emit byte-identical explanation documents, and every
// tree bottoms out in base facts with source positions (schema
// regionbench/explain/v1).
//
// The -query-bench mode measures the demand-driven pair-query path
// (see regionwiz -query): each corpus workload is analyzed in full,
// then every reported warning's allocation-site pair is re-asked as a
// demand query (with reversed pairs as negative probes). Numbers are
// written only if every demand verdict matches the full report
// (schema regionbench/query/v1, see BENCH_query.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchOpts is the analysis configuration selected by the backend and
// kernel flags, shared by the table and -json drivers.
var benchOpts core.Options

func main() {
	table := flag.String("table", "all", "which table to print: 7, 8, 11, or all")
	seed := flag.Int64("seed", 2008, "corpus generation seed")
	scale := flag.String("scale", "paper", "corpus scale: small or paper")
	jsonPath := flag.String("json", "", "write per-phase, per-workload timings as JSON to this file")
	traceOn := flag.Bool("trace", false, "trace the -json corpus run and embed per-span totals in the document")
	jobs := flag.Int("jobs", 0, "number of executables analyzed concurrently in -json mode (0 = GOMAXPROCS)")
	backend := flag.String("backend", "explicit", "pair-computation engine: explicit or bdd")
	bddNodeSize := flag.Int("bdd-node-size", 0, "initial BDD node-table capacity (0 = kernel default)")
	bddCacheRatio := flag.Int("bdd-cache-ratio", 0, "BDD node-table slots per op-cache slot (0 = kernel default)")
	bddGC := flag.Bool("bdd-gc", false, "enable BDD kernel mark-and-sweep GC at solver safe points (results-neutral)")
	bddGCThreshold := flag.Int("bdd-gc-threshold", 0, "minimum live nodes before pressure triggers a collection (0 = kernel default)")
	bddReorder := flag.Bool("bdd-reorder", false, "enable sifting-based BDD variable reordering between strata (results-neutral)")
	explainBench := flag.Bool("explain-bench", false, "measure why-provenance explanation latency (recorded vs replay paths) over the corpus with report/explanation parity checks (with -json, writes schema regionbench/explain/v1)")
	queryBench := flag.Bool("query-bench", false, "measure demand-driven pair-query latency against the full pipeline over the corpus, gating on verdict parity with the full report (with -json, writes schema regionbench/query/v1)")
	kernelBench := flag.Bool("kernel-bench", false, "measure BDD kernel lifecycle (GC/reorder) memory and wall trajectory on the heaviest workload (with -json, writes schema regionbench/kernel/v1)")
	benchtime := flag.String("benchtime", "3x", "timed repetitions per -kernel-bench configuration, go-test style (e.g. 1x)")
	editLoop := flag.Int("edit-loop", 0, "steady-state incremental mode: split the largest workload into files, then re-analyze N single-file edits against the previous snapshot (with -json, writes schema regionbench/incremental/v1)")
	oracleMode := flag.Bool("oracle", false, "run the differential soundness/parity oracle sweep instead of benchmarks")
	oracleSeeds := flag.Int("seeds", 100, "number of oracle sweep seeds (with -oracle)")
	oracleStart := flag.Int64("seed-start", 0, "first oracle sweep seed (with -oracle)")
	reproDir := flag.String("repro-dir", "", "directory for minimized failure repros (with -oracle; empty = no artifacts)")
	flag.Parse()

	switch *backend {
	case "explicit":
		benchOpts.Solver.Backend = core.ExplicitBackend
	case "bdd":
		benchOpts.Solver.Backend = core.BDDBackend
	default:
		fmt.Fprintf(os.Stderr, "regionbench: unknown -backend %q (want explicit or bdd)\n", *backend)
		os.Exit(2)
	}
	benchOpts.Solver.BDD = bdd.Config{
		NodeSize:    *bddNodeSize,
		CacheRatio:  *bddCacheRatio,
		GC:          *bddGC,
		GCThreshold: *bddGCThreshold,
		Reorder:     *bddReorder,
	}

	if *oracleMode {
		if err := runOracle(*oracleSeeds, *oracleStart, *jobs, *reproDir, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var specs []workloads.Spec
	switch *scale {
	case "paper":
		specs = workloads.PaperCorpus()
	case "small":
		specs = workloads.SmallCorpus()
	default:
		fmt.Fprintf(os.Stderr, "regionbench: unknown -scale %q\n", *scale)
		os.Exit(2)
	}

	pkgs := make([]*workloads.Package, len(specs))
	for i, spec := range specs {
		pkgs[i] = workloads.Generate(spec, *seed)
	}

	if *explainBench {
		if err := runExplainBench(*jsonPath, *seed, pkgs); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *queryBench {
		if err := runQueryBench(*jsonPath, *seed, pkgs); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *kernelBench {
		rounds, err := parseBenchtime(*benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(2)
		}
		if err := runKernelBench(*jsonPath, *seed, rounds, pkgs); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *editLoop > 0 {
		if err := runEditLoop(*jsonPath, *editLoop, *seed, pkgs); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, pkgs, *seed, *scale, *jobs, *traceOn); err != nil {
			fmt.Fprintf(os.Stderr, "regionbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *table == "7" || *table == "all" {
		printFigure7(pkgs)
	}
	if *table == "8" || *table == "all" {
		printFigure8(pkgs)
	}
	if *table == "11" || *table == "all" {
		printFigure11(pkgs)
	}
}

// --- -json mode: the BENCH_*.json trajectory schema ---

type benchDoc struct {
	Schema    string          `json:"schema"`
	Seed      int64           `json:"seed"`
	Scale     string          `json:"scale"`
	Jobs      int             `json:"jobs"`
	Workloads []workloadTimes `json:"workloads"`
	// TraceSummary aggregates span wall time by span name across the
	// whole corpus run (present only with -trace): phases, per-rule
	// fixpoint evaluations, solver rounds.
	TraceSummary map[string]spanTotal `json:"trace_summary,omitempty"`
}

type spanTotal struct {
	Count  uint64  `json:"count"`
	WallMS float64 `json:"wall_ms"`
}

type workloadTimes struct {
	Package string       `json:"package"`
	Exe     string       `json:"exe"`
	TimeMS  float64      `json:"time_ms"`
	Error   string       `json:"error,omitempty"`
	Phases  []phaseTimes `json:"phases,omitempty"`
	Stats   *headline    `json:"stats,omitempty"`
}

type phaseTimes struct {
	Name       string           `json:"name"`
	TimeMS     float64          `json:"time_ms"`
	AllocBytes int64            `json:"alloc_bytes"`
	Outputs    map[string]int64 `json:"outputs,omitempty"`
}

type headline struct {
	Regions  int    `json:"regions"`
	Objects  int    `json:"objects"`
	Heap     int    `json:"heap_edges"`
	RPairs   int64  `json:"region_pairs"`
	IPairs   int    `json:"instruction_pairs"`
	High     int    `json:"high_ranked"`
	Contexts uint64 `json:"contexts"`
}

// writeJSON analyzes every (package, exe) pair over the parallel
// corpus driver and writes the per-phase timing document.
func writeJSON(path string, pkgs []*workloads.Package, seed int64, scale string, jobs int, traceOn bool) error {
	type job struct {
		pkg *workloads.Package
		exe workloads.Exe
	}
	var jobsIn []job
	for _, p := range pkgs {
		for _, exe := range p.Exes {
			jobsIn = append(jobsIn, job{p, exe})
		}
	}
	ctx := context.Background()
	var tracer *trace.Tracer
	if traceOn {
		tracer = trace.New()
		ctx = trace.WithTracer(ctx, tracer)
	}
	results := pipeline.RunCorpus(ctx, jobsIn, jobs,
		func(ctx context.Context, j job) (*core.Analysis, error) {
			return core.AnalyzeSourceContext(ctx, benchOpts, j.pkg.SourcesFor(j.exe))
		})
	doc := benchDoc{
		Schema: "regionbench/phase-timings/v1",
		Seed:   seed,
		Scale:  scale,
		Jobs:   jobs,
	}
	for i, res := range results {
		wt := workloadTimes{
			Package: jobsIn[i].pkg.Spec.Name,
			Exe:     jobsIn[i].exe.Name,
			TimeMS:  float64(res.Wall) / float64(time.Millisecond),
		}
		if res.Err != nil {
			wt.Error = res.Err.Error()
		} else {
			s := res.Out.Report.Stats
			wt.Stats = &headline{
				Regions: s.R, Objects: s.H, Heap: s.Heap,
				RPairs: s.RPairs, IPairs: s.IPairs, High: s.High,
				Contexts: s.Contexts,
			}
			for _, p := range s.Phases {
				wt.Phases = append(wt.Phases, phaseTimes{
					Name:       p.Name,
					TimeMS:     float64(p.Time) / float64(time.Millisecond),
					AllocBytes: p.AllocBytes,
					Outputs:    p.Outputs,
				})
			}
		}
		doc.Workloads = append(doc.Workloads, wt)
	}
	if tracer != nil {
		doc.TraceSummary = make(map[string]spanTotal)
		for name, s := range tracer.Summary() {
			doc.TraceSummary[name] = spanTotal{
				Count:  s.Count,
				WallMS: float64(s.Wall) / float64(time.Millisecond),
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func analyze(pkg *workloads.Package, exe workloads.Exe) (*core.Analysis, error) {
	return core.AnalyzeSource(benchOpts, pkg.SourcesFor(exe))
}

func printFigure7(pkgs []*workloads.Package) {
	fmt.Println("Figure 7. Benchmarks (synthetic corpus; KLOC scaled, see DESIGN.md).")
	fmt.Printf("%-12s %8s %5s  %s\n", "package", "KLOC", "exe", "interface")
	for _, p := range pkgs {
		fmt.Printf("%-12s %8.1f %5d  %s\n", p.Spec.Name, p.KLOC, len(p.Exes), p.Spec.Interface)
	}
	fmt.Println()
}

func printFigure8(pkgs []*workloads.Package) {
	fmt.Println("Figure 8. High-ranked warnings (unique causes) and inconsistencies (unique causes).")
	fmt.Println("Measured causes cluster warnings by holder function; inconsistency counts are the planted ground truth.")
	fmt.Printf("%-12s %14s %18s\n", "package", "high (cause)", "inconsistency (cause)")
	totalHigh, totalHighCauses, totalInc, totalIncCauses := 0, 0, 0, 0
	for _, p := range pkgs {
		high, highCauses := 0, 0
		for _, exe := range p.Exes {
			a, err := analyze(p, exe)
			if err != nil {
				fmt.Fprintf(os.Stderr, "regionbench: %s: %v\n", exe.Name, err)
				continue
			}
			high += a.Report.Stats.High
			highCauses += a.Report.Stats.HighCauses
		}
		inc, incCauses := 0, 0
		seenPattern := map[workloads.Pattern]bool{}
		for _, pat := range p.Spec.Plants {
			if pat.TrueBug() {
				inc++
				if !seenPattern[pat] {
					seenPattern[pat] = true
					incCauses++
				}
			}
		}
		fmt.Printf("%-12s %7d (%2d) %13d (%2d)\n", p.Spec.Name, high, highCauses, inc, incCauses)
		totalHigh += high
		totalHighCauses += highCauses
		totalInc += inc
		totalIncCauses += incCauses
	}
	fmt.Printf("%-12s %7d (%2d) %13d (%2d)\n", "total", totalHigh, totalHighCauses, totalInc, totalIncCauses)
	fmt.Println()
}

func printFigure11(pkgs []*workloads.Package) {
	fmt.Println("Figure 11. Quantitative results per executable.")
	fmt.Printf("%-16s %9s %6s %7s %6s %7s %8s %9s %7s %7s %5s\n",
		"executable", "time", "R", "H", "sub", "own", "heap", "R-pair", "O-pair", "I-pair", "high")
	for _, p := range pkgs {
		for _, exe := range p.Exes {
			start := time.Now()
			a, err := analyze(p, exe)
			if err != nil {
				fmt.Fprintf(os.Stderr, "regionbench: %s: %v\n", exe.Name, err)
				continue
			}
			s := a.Report.Stats
			fmt.Printf("%-16s %9s %6d %7d %6d %7d %8d %9d %7d %7d %5d\n",
				shorten(exe.Name), time.Since(start).Round(time.Millisecond),
				s.R, s.H, s.Sub, s.Own, s.Heap, s.RPairs, s.OPairs, s.IPairs, s.High)
		}
	}
	fmt.Println()
}

func shorten(s string) string {
	if len(s) <= 16 {
		return s
	}
	return s[:13] + strings.Repeat(".", 3)
}
