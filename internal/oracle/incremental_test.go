package oracle

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestIncrementalMatchesFromScratch is the differential oracle for the
// incremental front end: starting from a multi-file program, a seeded
// 25-step edit sequence is replayed twice — once as a chain of
// AnalyzeIncremental deltas against the previous analysis, once as a
// from-scratch analysis of each intermediate state — and the canonical
// reports must be byte-identical at every step. The edits come from
// the oracle's mutation machinery, so they rotate body-only changes
// (statement reorders, region-op swaps inside bodies), added functions
// (call-depth inflation), both of which keep the per-file fast path
// eligible, and declaration changes (a region-op swap in a prototype,
// which forces the full-check fallback). Both pair-computation
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
			// Sorted, so the seeded sequence replays step for step.
			editable := make([]string, 0, len(cur))
			for p := range cur {
				editable = append(editable, p)
			}
			sort.Strings(editable)

			ctx := context.Background()
			inc, err := core.AnalyzeSourceContext(ctx, opts, cur)
			if err != nil {
				t.Fatalf("initial analysis: %v", err)
			}
			scratch, err := core.AnalyzeSource(opts, cur)
			if err != nil {
				t.Fatalf("initial from-scratch analysis: %v", err)
			}
			if !bytes.Equal(CanonicalReport(inc.Report), CanonicalReport(scratch.Report)) {
				t.Fatal("two plain analyses disagree before any edit")
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

				a, err := core.AnalyzeIncremental(ctx, opts, inc,
					inc.Apply(map[string]string{p: mutated}, nil))
				if err != nil {
					t.Fatalf("step %d (%s): incremental: %v", applied, desc, err)
				}
				inc = a
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

// TestDeltaFanOutSharesFragments runs seven deltas concurrently
// against one base analysis, so every unchanged file's IR fragment is
// linked into several programs at once (run with -race): a body-only
// edit of each of the four files, an added function, which stays on
// the incremental path, a parameter-type change that takes the
// full-check fallback, and an edit that deletes the program's only
// &spare_pool. Every report must equal a from-scratch run of the same
// sources, the deleted &spare_pool must leave the global not
// address-taken (a link must rebuild that flag, not inherit it from a
// fragment another link wrote to), and relinking the base's fragments
// afterwards must still reproduce the base report.
func TestDeltaFanOutSharesFragments(t *testing.T) {
	for _, b := range []struct {
		name    string
		backend core.Backend
	}{{"explicit", core.ExplicitBackend}, {"bdd", core.BDDBackend}} {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{Solver: core.SolverOptions{Backend: b.backend}}
			base := incrSources()
			const lib, main = "o-incr-lib.c", "o-incr-0-02.c"
			// spare_pool: defined and address-taken once in the library,
			// read in main's file.
			edit(t, base, lib, "node_t * lib_alloc_node", "apr_pool_t *spare_pool;\nnode_t * lib_alloc_node")
			edit(t, base, lib, "apr_pool_create(&p, parent);", "apr_pool_create(&p, parent);\n    apr_pool_create(&spare_pool, parent);")
			edit(t, base, main, "int main(int argc) {", "extern apr_pool_t *spare_pool;\nint main(int argc) {")
			edit(t, base, main, "lib_destroy(root);", "lib_destroy(root);\n    lib_destroy(spare_pool);")

			type delta struct {
				name, path, old, new string
				fast                 bool // takes the incremental-check fast path
				dropsAddr            bool // deletes the only &spare_pool
			}
			deltas := []delta{
				{"body 0-00", "o-incr-0-00.c", "a->next = b;", "b->next = a;", true, false},
				{"body 0-01", "o-incr-0-01.c", "pattern_iterator_escape_1(pool, sub);", "pattern_iterator_escape_1(sub, pool);", true, false},
				{"body 0-02", main, "stage_0_1(root);", "stage_0_0(root);", true, false},
				{"body lib", lib, "n = apr_palloc(pool, 32);", "n = apr_pcalloc(pool, 32);", true, false},
				{"decl 0-01", "o-incr-0-01.c", "void stage_0_1(", "void stage_extra(void) {}\n\nvoid stage_0_1(", true, false},
				{"param type 0-01", "o-incr-0-01.c", "void stage_0_1(apr_pool_t *pool) {", "void stage_0_1(void *pool) {", false, false},
				{"drop &spare_pool", lib, "apr_pool_create(&spare_pool, parent);", "spare_pool = parent;", true, true},
			}

			ctx := context.Background()
			first, err := core.AnalyzeSourceContext(ctx, opts, base)
			if err != nil {
				t.Fatalf("base analysis: %v", err)
			}
			baseReport := CanonicalReport(first.Report)
			if !addrTaken(t, first, "spare_pool") {
				t.Fatal("base program does not take &spare_pool")
			}

			var wg sync.WaitGroup
			for _, d := range deltas {
				d := d
				src := base[d.path]
				if !strings.Contains(src, d.old) {
					t.Fatalf("%s: %q not in %s", d.name, d.old, d.path)
				}
				changed := map[string]string{d.path: strings.Replace(src, d.old, d.new, 1)}
				wg.Add(1)
				go func() {
					defer wg.Done()
					a, err := core.AnalyzeIncremental(ctx, opts, first, first.Apply(changed, nil))
					if err != nil {
						t.Errorf("%s: incremental: %v", d.name, err)
						return
					}
					full, err := core.AnalyzeSource(opts, first.Apply(changed, nil))
					if err != nil {
						t.Errorf("%s: from scratch: %v", d.name, err)
						return
					}
					if got, want := CanonicalReport(a.Report), CanonicalReport(full.Report); !bytes.Equal(got, want) {
						t.Errorf("%s: incremental diverged from from-scratch\nincremental:\n%s\nfrom-scratch:\n%s", d.name, got, want)
					}
					if got, want := fmt.Sprint(a.Ptr.SolverStats()), fmt.Sprint(full.Ptr.SolverStats()); got != want {
						t.Errorf("%s: points-to solve differs: incremental %s, from-scratch %s", d.name, got, want)
					}
					if fast := a.Front.CheckReused > 0; fast != d.fast {
						t.Errorf("%s: incremental check reuse %t, want %t", d.name, fast, d.fast)
					}
					if got := addrTaken(t, a, "spare_pool"); got == d.dropsAddr {
						t.Errorf("%s: spare_pool address-taken %t, want %t", d.name, got, !d.dropsAddr)
					}
				}()
			}
			wg.Wait()

			// A delta that changes nothing relinks every base fragment.
			again, err := core.AnalyzeIncremental(ctx, opts, first, first.Apply(nil, nil))
			if err != nil {
				t.Fatalf("relink: %v", err)
			}
			if again.Front.LowerLowered != 0 {
				t.Fatalf("relink lowered %d files, want all reused", again.Front.LowerLowered)
			}
			if got := CanonicalReport(again.Report); !bytes.Equal(got, baseReport) {
				t.Fatalf("relinked base differs from the base\nrelinked:\n%s\nbase:\n%s", got, baseReport)
			}
			if !addrTaken(t, again, "spare_pool") {
				t.Fatal("relinked base lost &spare_pool")
			}
		})
	}
}

// edit replaces the first old in sources[path] with new.
func edit(t *testing.T, sources map[string]string, path, old, new string) {
	t.Helper()
	if !strings.Contains(sources[path], old) {
		t.Fatalf("%q not in %s", old, path)
	}
	sources[path] = strings.Replace(sources[path], old, new, 1)
}

// addrTaken reports whether the analysis's program takes the named
// global's address.
func addrTaken(t *testing.T, a *core.Analysis, global string) bool {
	id, ok := a.Prog.Global(global)
	if !ok {
		t.Errorf("no global %s", global)
		return false
	}
	return a.Prog.Var(id).AddrTaken
}

// incrSources is the four-file o-incr program of
// TestIncrementalMatchesFromScratch: a shared library plus an
// executable split in three.
func incrSources() map[string]string {
	spec := workloads.Spec{
		Name: "o-incr", Exes: 1, Stages: 2, Depth: 2, Fanout: 2,
		Interface: "apr", SharedLib: true,
		Plants: []workloads.Pattern{workloads.SiblingLeak, workloads.IteratorEscape},
	}
	pkg := workloads.Generate(spec, 2008)
	return pkg.SplitSourcesFor(pkg.Exes[0], 3)
}
