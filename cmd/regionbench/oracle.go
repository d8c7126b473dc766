package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/oracle"
)

// runOracle drives the differential soundness/parity sweep
// (regionbench -oracle -seeds N). Both backends always run — the
// parity invariant needs them. With -json the regionwiz/oracle/v1 summary is written to the given
// path; the human-readable verdict always prints. A sweep with
// unallowlisted violations (or harness errors) exits 1.
func runOracle(w io.Writer, seeds int, start int64, jobs int, reproDir, jsonPath string) error {
	sum, err := oracle.Sweep(context.Background(), oracle.SweepConfig{
		Seeds:    seeds,
		Start:    start,
		Jobs:     jobs,
		ReproDir: reproDir,
		Minimize: reproDir != "",
	})
	if err != nil {
		return err
	}
	if jsonPath != "" {
		body, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(body, '\n'), 0o644); err != nil {
			return err
		}
	}
	printOracleSummary(w, sum)
	if !sum.Clean() {
		return fmt.Errorf("oracle sweep failed: %d unallowlisted failure(s)", len(sum.Failures))
	}
	return nil
}

func printOracleSummary(w io.Writer, sum *oracle.Summary) {
	fmt.Fprintf(w, "oracle: %d case(s) from seed %d (%d mutated, %d budget-aborted run(s))\n",
		sum.Cases, sum.Start, sum.Mutated, sum.BudgetAborts)
	fmt.Fprintf(w, "dynamic ground truth: %d violation pair(s)\n", sum.DynamicViolations)
	fmt.Fprintf(w, "soundness: %d failed / %d allowlisted; parity: %d failed; determinism: %d failed; throttle: %d failed\n",
		sum.Soundness.Failed, sum.Soundness.Allowed, sum.Parity.Failed, sum.Determinism.Failed, sum.Throttle.Failed)
	kinds := make([]string, 0, len(sum.PatternPlanted))
	for k := range sum.PatternPlanted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  pattern %-24s planted %3d  observed %3d\n",
			k, sum.PatternPlanted[k], sum.PatternObserved[k])
	}
	rules := make([]string, 0, len(sum.AllowedByRule))
	for r := range sum.AllowedByRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(w, "  allowlisted %3d: %s\n", sum.AllowedByRule[r], r)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(w, "FAIL %s (seed %d): %s\n", f.Case, f.Seed, f.Violation)
		if f.ReproDir != "" {
			fmt.Fprintf(w, "     repro: %s\n", f.ReproDir)
		}
	}
	if sum.Clean() {
		fmt.Fprintln(w, "oracle: PASS")
	}
}
