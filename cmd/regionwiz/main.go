// Command regionwiz analyzes C programs using region-based memory
// management and reports region lifetime inconsistencies.
//
// Usage:
//
//	regionwiz [flags] file.c... [dir...]
//
// Each directory argument is an independent file set (every .c file
// inside, non-recursive); loose file arguments together form one more
// set. Multiple sets are analyzed concurrently by a bounded worker
// pool and reported in argument order.
//
// Flags:
//
//	-entry name        program entry function (default "main")
//	-api apr|rc|both   region interface (default "both")
//	-context-cap N     per-function calling-context cap (default 4096)
//	-no-heap-cloning   disable heap cloning (lower precision)
//	-backend x         "explicit" or "bdd" pair computation
//	-high-only         print only high-ranked warnings
//	-stats             print the Figure 11 stats line only
//	-json              print the report as JSON
//	-explain id|all    print why-provenance for one warning (1-based id)
//	                   or every warning: the derivation tree from the
//	                   reported instruction pair back to base facts with
//	                   source positions. With -json the trees follow the
//	                   report as a second JSON document (schema
//	                   "regionwiz/explain/v1"). Reports are byte-identical
//	                   with or without -explain.
//	-entries a,b,c     open-program analysis with the given roots
//	-kcfa K            k-CFA call-string contexts instead of call paths
//	-context-policy x  context numbering policy: "clone" (call-path
//	                   cloning, the default), "kcfa" (with -kcfa K), or
//	                   "origin" (allocation-site origin sensitivity —
//	                   a documented precision throttle; the report is
//	                   marked)
//	-pts-limit N       cap each variable's points-to set at N; overflow
//	                   collapses to a tainted ⊤ object (documented
//	                   unsound throttle; the report is marked)
//	-query src,dst     answer a pair query instead of printing the report:
//	                   is an access from the allocation site src to dst
//	                   ("file:line" or "file:line:col") inconsistent?
//	                   The full analysis runs and the verdict is read
//	                   from it, so it agrees with the report. With -json
//	                   the answer is a "regionwiz/query/v1" document;
//	                   exit code 3 means inconsistent. Not valid with
//	                   -watch.
//	-refine            enable the def-use (Figure 5(b)) refinement
//	-jobs N            analyze N file sets concurrently (default GOMAXPROCS)
//	-bdd-node-size N   initial BDD node-table capacity for -backend bdd
//	-bdd-cache-ratio N BDD node-table slots per op-cache slot
//	-timeout D         abort the whole run after D (e.g. 30s, 5m)
//	-watch             poll the arguments and re-analyze on change,
//	                   printing only the warning diff; unchanged files
//	                   reuse the previous run's parse/check/lower work
//	                   and rapid saves are debounced (other output flags
//	                   do not apply)
//	-watch-interval D  poll interval for -watch (default 500ms)
//	-phase-stats       print the per-phase pipeline cost table
//	-trace f           write a Chrome trace_event JSON trace to f
//	                   (open in chrome://tracing or ui.perfetto.dev;
//	                   schema "regionwiz/trace/v1")
//	-cpuprofile f      write a CPU profile to f
//	-memprofile f      write a heap profile to f
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	regionwiz "repro"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	entry := flag.String("entry", "main", "program entry function")
	api := flag.String("api", "both", "region interface: apr, rc, or both")
	contextCap := flag.Uint64("context-cap", 4096, "per-function context cap")
	noHeapCloning := flag.Bool("no-heap-cloning", false, "disable heap cloning")
	backend := flag.String("backend", "explicit", "pair computation backend: explicit or bdd")
	highOnly := flag.Bool("high-only", false, "print only high-ranked warnings")
	statsOnly := flag.Bool("stats", false, "print stats only")
	jsonOut := flag.Bool("json", false, "print the report as JSON")
	explainSel := flag.String("explain", "", "explain warning derivations: a 1-based warning id or \"all\"")
	entries := flag.String("entries", "", "comma-separated analysis roots for open-program (library) analysis")
	kcfa := flag.Int("kcfa", 0, "use k-CFA call-string contexts of this depth instead of call-path cloning")
	contextPolicy := flag.String("context-policy", "", "context numbering policy: clone, kcfa, or origin (default derived from -kcfa)")
	ptsLimit := flag.Int("pts-limit", 0, "cap each variable's points-to set; overflow collapses to a tainted ⊤ object (0 = unlimited)")
	querySel := flag.String("query", "", "pair query \"src,dst\" (allocation sites as file:line or file:line:col), answered from the full analysis instead of printing the report")
	refine := flag.Bool("refine", false, "enable the def-use (Figure 5(b)) refinement")
	jobs := flag.Int("jobs", 0, "number of file sets analyzed concurrently (0 = GOMAXPROCS)")
	bddNodeSize := flag.Int("bdd-node-size", 0, "initial BDD node-table capacity for -backend bdd (0 = kernel default)")
	bddCacheRatio := flag.Int("bdd-cache-ratio", 0, "BDD node-table slots per op-cache slot (0 = kernel default)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	phaseStats := flag.Bool("phase-stats", false, "print the per-phase pipeline cost table")
	watch := flag.Bool("watch", false, "re-analyze on file change, printing only the warning diff")
	watchInterval := flag.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON trace to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "regionwiz: no input files")
		flag.Usage()
		return 2
	}

	opts := regionwiz.Options{
		Entry:            *entry,
		ContextCap:       *contextCap,
		HeapCloning:      regionwiz.Bool(!*noHeapCloning),
		KCFA:             *kcfa,
		ContextPolicy:    *contextPolicy,
		DefUseRefinement: *refine,
	}
	opts.Solver.PtsLimit = *ptsLimit
	explainWarning := 0
	if *explainSel != "" {
		if *explainSel != "all" {
			n, err := strconv.Atoi(*explainSel)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "regionwiz: -explain wants a 1-based warning id or \"all\", got %q\n", *explainSel)
				return 2
			}
			explainWarning = n
		}
	}
	opts.Solver.BDD.NodeSize = *bddNodeSize
	opts.Solver.BDD.CacheRatio = *bddCacheRatio
	if *entries != "" {
		opts.Entries = strings.Split(*entries, ",")
	}
	switch *api {
	case "apr":
		opts.API = regionwiz.APRPools()
	case "rc":
		opts.API = regionwiz.RCRegions()
	case "both":
		opts.API = regionwiz.MergeAPIs(regionwiz.APRPools(), regionwiz.RCRegions())
	default:
		fmt.Fprintf(os.Stderr, "regionwiz: unknown -api %q\n", *api)
		return 2
	}
	switch *backend {
	case "explicit":
		opts.Solver.Backend = regionwiz.ExplicitBackend
	case "bdd":
		opts.Solver.Backend = regionwiz.BDDBackend
	default:
		fmt.Fprintf(os.Stderr, "regionwiz: unknown -backend %q\n", *backend)
		return 2
	}

	var srcSite, dstSite string
	if *querySel != "" {
		var ok bool
		srcSite, dstSite, ok = strings.Cut(*querySel, ",")
		if !ok || srcSite == "" || dstSite == "" {
			fmt.Fprintf(os.Stderr, "regionwiz: -query wants \"src,dst\" allocation sites, got %q\n", *querySel)
			return 2
		}
		if *watch {
			fmt.Fprintln(os.Stderr, "regionwiz: -query and -watch cannot be combined")
			return 2
		}
	}

	if *watch {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		return runWatch(ctx, flag.Args(), opts, *watchInterval)
	}

	sets, err := fileSets(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "regionwiz: %v\n", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
		ctx = trace.WithTracer(ctx, tracer)
	}

	results := pipeline.RunCorpus(ctx, sets, *jobs,
		func(ctx context.Context, set fileSet) (*regionwiz.Analysis, error) {
			// Each file set gets its own root span (and so its own
			// lane in the Chrome view) named after the set.
			ctx, sp := trace.StartSpan(ctx, "analyze:"+set.name)
			a, err := regionwiz.AnalyzeFilesContext(ctx, opts, set.files...)
			sp.End(trace.Bool("error", err != nil))
			return a, err
		})

	code := 0
	for i, res := range results {
		if len(sets) > 1 {
			fmt.Printf("== %s ==\n", sets[i].name)
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: %s: %v\n", sets[i].name, res.Err)
			code = 1
			continue
		}
		report := res.Out.Report
		switch {
		case *querySel != "":
			ans, err := res.Out.QueryPair(ctx, srcSite, dstSite)
			if err != nil {
				fmt.Fprintf(os.Stderr, "regionwiz: %s: %v\n", sets[i].name, err)
				code = 1
				continue
			}
			if *jsonOut {
				data, err := json.MarshalIndent(ans, "", "  ")
				if err != nil {
					fmt.Fprintf(os.Stderr, "regionwiz: %v\n", err)
					return 1
				}
				fmt.Println(string(data))
			} else {
				fmt.Println(ans)
			}
			// A query's exit status is its verdict, not the report's
			// warning count.
			if ans.Inconsistent && code == 0 {
				code = 3
			}
		case *jsonOut:
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "regionwiz: %v\n", err)
				return 1
			}
			fmt.Println(string(data))
		case *statsOnly:
			s := report.Stats
			fmt.Printf("time=%v R=%d H=%d sub=%d own=%d heap=%d R-pair=%d O-pair=%d I-pair=%d high=%d contexts=%d\n",
				s.Time, s.R, s.H, s.Sub, s.Own, s.Heap, s.RPairs, s.OPairs, s.IPairs, s.High, s.Contexts)
		case *highOnly:
			hw := report.HighWarnings()
			fmt.Printf("regionwiz: %d high-ranked warning(s)\n", len(hw))
			for i, w := range hw {
				fmt.Printf("%3d [HIGH] %s\n", i+1, w.Message)
			}
		default:
			fmt.Print(report)
		}
		if *explainSel != "" {
			if err := printExplanations(ctx, res.Out, explainWarning, *jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "regionwiz: %s: %v\n", sets[i].name, err)
				code = 1
			}
		}
		if *phaseStats {
			printPhaseStats(report.Stats.Phases)
		}
		if *querySel == "" && len(report.Warnings) > 0 && code == 0 {
			code = 3
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -trace: %v\n", err)
			return 1
		}
		werr := tracer.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "regionwiz: wrote %d trace records to %s\n", tracer.Len(), *traceOut)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "regionwiz: -memprofile: %v\n", err)
			return 1
		}
	}
	return code
}

// fileSet is one independently analyzed program.
type fileSet struct {
	name  string
	files []string
}

// fileSets groups the command-line arguments: every directory becomes
// its own set (all .c files directly inside, sorted), and loose files
// together form one set placed at the position of the first loose
// argument.
func fileSets(args []string) ([]fileSet, error) {
	var sets []fileSet
	var loose []string
	looseAt := -1
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			if looseAt < 0 {
				looseAt = len(sets)
				sets = append(sets, fileSet{}) // placeholder
			}
			loose = append(loose, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.c"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no .c files", arg)
		}
		sort.Strings(matches)
		sets = append(sets, fileSet{name: arg, files: matches})
	}
	if looseAt >= 0 {
		sets[looseAt] = fileSet{name: strings.Join(loose, " "), files: loose}
	}
	return sets, nil
}

// printExplanations renders -explain output for one analyzed set:
// derivation trees from the warning's instruction pair back to base
// facts with source positions. warning 0 means every warning; with
// jsonOut the trees are emitted as the versioned explanation document
// (schema "regionwiz/explain/v1") after the report JSON.
func printExplanations(ctx context.Context, a *regionwiz.Analysis, warning int, jsonOut bool) error {
	ex, err := a.Explainer(ctx)
	if err != nil {
		return err
	}
	var exps []*regionwiz.Explanation
	if warning == 0 {
		exps, err = ex.ExplainAll(ctx)
	} else {
		var e *regionwiz.Explanation
		if e, err = ex.Explain(ctx, warning); err == nil {
			exps = []*regionwiz.Explanation{e}
		}
	}
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := regionwiz.MarshalExplanations(exps)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if len(exps) == 0 {
		fmt.Println("regionwiz: no warnings to explain")
		return nil
	}
	for _, e := range exps {
		fmt.Print(e)
	}
	return nil
}

// printPhaseStats renders the pipeline cost table.
func printPhaseStats(phases []regionwiz.PhaseStat) {
	fmt.Printf("%-10s %12s %12s  %s\n", "phase", "time", "alloc", "outputs")
	var total time.Duration
	for _, p := range phases {
		keys := make([]string, 0, len(p.Outputs))
		for k := range p.Outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var outs []string
		for _, k := range keys {
			outs = append(outs, fmt.Sprintf("%s=%d", k, p.Outputs[k]))
		}
		fmt.Printf("%-10s %12v %12s  %s\n",
			p.Name, p.Time.Round(time.Microsecond), fmtBytes(p.AllocBytes),
			strings.Join(outs, " "))
		total += p.Time
	}
	fmt.Printf("%-10s %12v\n", "total", total.Round(time.Microsecond))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
