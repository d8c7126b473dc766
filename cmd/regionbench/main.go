// Command regionbench regenerates the paper's evaluation tables over
// the synthetic benchmark corpus (see DESIGN.md for the substitution
// notes — absolute numbers differ from the paper's corpus; the shape
// is what reproduces), or runs the differential oracle sweep.
//
// Usage:
//
//	regionbench -table 7|8|11|all [-seed N] [-scale small|paper]
//	regionbench -oracle [-seeds N] [-seed-start N] [-jobs N] [-json out.json] [-repro-dir DIR]
//
// Per-phase timings and outputs are read from perfbench (perfbench/)
// or from regionwiz -json and -phase-stats, not from here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables or the
// oracle verdict to stdout and diagnostics to stderr, and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to print: 7, 8, 11, or all")
	seed := fs.Int64("seed", 2008, "corpus generation seed")
	scale := fs.String("scale", "paper", "corpus scale: small or paper")
	oracleMode := fs.Bool("oracle", false, "run the differential soundness/parity oracle sweep instead of the tables")
	oracleSeeds := fs.Int("seeds", 100, "number of oracle sweep seeds (with -oracle)")
	oracleStart := fs.Int64("seed-start", 0, "first oracle sweep seed (with -oracle)")
	jobs := fs.Int("jobs", 0, "number of oracle seeds run concurrently (with -oracle; 0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the oracle summary as JSON to this file (with -oracle)")
	reproDir := fs.String("repro-dir", "", "directory for minimized failure repros (with -oracle; empty = no artifacts)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *oracleMode {
		if err := runOracle(stdout, *oracleSeeds, *oracleStart, *jobs, *reproDir, *jsonPath); err != nil {
			fmt.Fprintf(stderr, "regionbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *jsonPath != "" {
		fmt.Fprintln(stderr, "regionbench: -json applies only to -oracle")
		return 2
	}

	var specs []workloads.Spec
	switch *scale {
	case "paper":
		specs = workloads.PaperCorpus()
	case "small":
		specs = workloads.SmallCorpus()
	default:
		fmt.Fprintf(stderr, "regionbench: unknown -scale %q\n", *scale)
		return 2
	}

	pkgs := make([]*workloads.Package, len(specs))
	for i, spec := range specs {
		pkgs[i] = workloads.Generate(spec, *seed)
	}

	if *table == "7" || *table == "all" {
		printFigure7(stdout, pkgs)
	}
	if *table == "8" || *table == "all" {
		printFigure8(stdout, stderr, pkgs)
	}
	if *table == "11" || *table == "all" {
		printFigure11(stdout, stderr, pkgs)
	}
	return 0
}

func analyze(pkg *workloads.Package, exe workloads.Exe) (*core.Analysis, error) {
	return core.AnalyzeSource(core.Options{}, pkg.SourcesFor(exe))
}

func printFigure7(w io.Writer, pkgs []*workloads.Package) {
	fmt.Fprintln(w, "Figure 7. Benchmarks (synthetic corpus; KLOC scaled, see DESIGN.md).")
	fmt.Fprintf(w, "%-12s %8s %5s  %s\n", "package", "KLOC", "exe", "interface")
	for _, p := range pkgs {
		fmt.Fprintf(w, "%-12s %8.1f %5d  %s\n", p.Spec.Name, p.KLOC, len(p.Exes), p.Spec.Interface)
	}
	fmt.Fprintln(w)
}

func printFigure8(w, stderr io.Writer, pkgs []*workloads.Package) {
	fmt.Fprintln(w, "Figure 8. High-ranked warnings (unique causes) and inconsistencies (unique causes).")
	fmt.Fprintln(w, "Measured causes cluster warnings by holder function; inconsistency counts are the planted ground truth.")
	fmt.Fprintf(w, "%-12s %14s %18s\n", "package", "high (cause)", "inconsistency (cause)")
	totalHigh, totalHighCauses, totalInc, totalIncCauses := 0, 0, 0, 0
	for _, p := range pkgs {
		high, highCauses := 0, 0
		for _, exe := range p.Exes {
			a, err := analyze(p, exe)
			if err != nil {
				fmt.Fprintf(stderr, "regionbench: %s: %v\n", exe.Name, err)
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
		fmt.Fprintf(w, "%-12s %7d (%2d) %13d (%2d)\n", p.Spec.Name, high, highCauses, inc, incCauses)
		totalHigh += high
		totalHighCauses += highCauses
		totalInc += inc
		totalIncCauses += incCauses
	}
	fmt.Fprintf(w, "%-12s %7d (%2d) %13d (%2d)\n", "total", totalHigh, totalHighCauses, totalInc, totalIncCauses)
	fmt.Fprintln(w)
}

func printFigure11(w, stderr io.Writer, pkgs []*workloads.Package) {
	fmt.Fprintln(w, "Figure 11. Quantitative results per executable.")
	fmt.Fprintf(w, "%-16s %9s %6s %7s %6s %7s %8s %9s %7s %7s %5s\n",
		"executable", "time", "R", "H", "sub", "own", "heap", "R-pair", "O-pair", "I-pair", "high")
	for _, p := range pkgs {
		for _, exe := range p.Exes {
			start := time.Now()
			a, err := analyze(p, exe)
			if err != nil {
				fmt.Fprintf(stderr, "regionbench: %s: %v\n", exe.Name, err)
				continue
			}
			s := a.Report.Stats
			fmt.Fprintf(w, "%-16s %9s %6d %7d %6d %7d %8d %9d %7d %7d %5d\n",
				shorten(exe.Name), time.Since(start).Round(time.Millisecond),
				s.R, s.H, s.Sub, s.Own, s.Heap, s.RPairs, s.OPairs, s.IPairs, s.High)
		}
	}
	fmt.Fprintln(w)
}

func shorten(s string) string {
	if len(s) <= 16 {
		return s
	}
	return s[:13] + strings.Repeat(".", 3)
}
