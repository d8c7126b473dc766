package oracle

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestIncrementalMatchesFromScratch is the differential oracle for the
// incremental front end: starting from a multi-file program, a seeded
// 25-step edit sequence is replayed twice — once as a chain of
// AnalyzeIncremental deltas against the previous snapshot, once as a
// from-scratch analysis of each intermediate state — and the canonical
// reports must be byte-identical at every step. The edits come from
// the oracle's mutation machinery, so they rotate body-only changes
// (statement reorders, region-op swaps, which keep the per-file fast
// path eligible) and declaration changes (call-depth inflation adds
// functions, forcing the full-fixpoint fallback). Both pair-computation
// backends are covered.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	const steps = 25
	backends := []struct {
		name    string
		backend core.Backend
	}{
		{"explicit", core.ExplicitBackend},
		{"bdd", core.BDDBackend},
	}
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{Solver: core.SolverOptions{Backend: b.backend}}

			// A SharedLib template gives a genuinely multi-file program;
			// splitting the executable adds more files so incremental
			// reuse is exercised, not just permitted.
			spec := workloads.Spec{
				Name: "o-incr", Exes: 1, Stages: 2, Depth: 2, Fanout: 2,
				Interface: "apr", SharedLib: true,
				Plants: []workloads.Pattern{workloads.SiblingLeak, workloads.IteratorEscape},
			}
			pkg := workloads.Generate(spec, 2008)
			exe := pkg.Exes[0]
			cur := pkg.SplitSourcesFor(exe, 3)
			var editable []string
			for p := range cur {
				editable = append(editable, p)
			}

			ctx := context.Background()
			inc, snap, err := core.AnalyzeSourceSnapshot(ctx, opts, cur)
			if err != nil {
				t.Fatalf("initial analysis: %v", err)
			}
			scratch, err := core.AnalyzeSource(opts, cur)
			if err != nil {
				t.Fatalf("initial from-scratch analysis: %v", err)
			}
			if !bytes.Equal(CanonicalReport(inc.Report), CanonicalReport(scratch.Report)) {
				t.Fatal("snapshot and plain analyses disagree before any edit")
			}

			rng := rand.New(rand.NewSource(2008))
			applied, attempts := 0, 0
			fastSteps, fallbackSteps := 0, 0
			for applied < steps {
				attempts++
				if attempts > steps*40 {
					t.Fatalf("mutation machinery dried up after %d applied steps", applied)
				}
				p := editable[rng.Intn(len(editable))]
				mutated, desc := mutateOnce(cur[p], rng)
				if desc == "" || mutated == cur[p] {
					continue
				}
				trial := make(map[string]string, len(cur))
				for k, v := range cur {
					trial[k] = v
				}
				trial[p] = mutated
				if _, _, err := parseAll(trial); err != nil {
					continue // invalid candidate: skip, try another
				}
				cur = trial
				applied++

				a, next, err := core.AnalyzeIncremental(ctx, opts, snap,
					map[string]string{p: mutated}, nil)
				if err != nil {
					t.Fatalf("step %d (%s): incremental: %v", applied, desc, err)
				}
				snap = next
				full, err := core.AnalyzeSource(opts, cur)
				if err != nil {
					t.Fatalf("step %d (%s): from-scratch: %v", applied, desc, err)
				}
				got, want := CanonicalReport(a.Report), CanonicalReport(full.Report)
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d (%s on %s): incremental diverged from from-scratch\nincremental:\n%s\nfrom-scratch:\n%s",
						applied, desc, p, got, want)
				}
				// Parse reuse survives even a check fallback (the parse
				// cache is per-file either way); check reuse is what
				// distinguishes the incremental fast path.
				if a.Front.CheckReused > 0 {
					fastSteps++
				} else {
					fallbackSteps++
				}
			}
			// The sequence must have exercised the per-file fast path —
			// a run that fell back to full re-analysis every step would
			// pass equality vacuously.
			if fastSteps == 0 {
				t.Fatalf("no step reused checked files (fast %d, fallback %d)", fastSteps, fallbackSteps)
			}
			t.Logf("%d steps: %d reused the front-end cache, %d fell back", steps, fastSteps, fallbackSteps)
		})
	}
}
