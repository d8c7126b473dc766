package oracle

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestCaseDeterminism: the whole harness is seeded — the same seed
// must derive byte-identical cases (sources and mutation log), or
// repros stop reproducing.
func TestCaseDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := NewCase(seed), NewCase(seed)
		if a.Name != b.Name || len(a.Sources) != len(b.Sources) {
			t.Fatalf("seed %d: case shape differs", seed)
		}
		for p, src := range a.Sources {
			if b.Sources[p] != src {
				t.Fatalf("seed %d: source %s differs between derivations", seed, p)
			}
		}
		if strings.Join(a.Mutations, ";") != strings.Join(b.Mutations, ";") {
			t.Fatalf("seed %d: mutation log differs", seed)
		}
	}
}

// TestMutatedCasesAreValid: every derived case — mutations included —
// must pass the front end, and the mutation layer must actually fire
// on a healthy fraction of seeds.
func TestMutatedCasesAreValid(t *testing.T) {
	mutated := 0
	for seed := int64(0); seed < 40; seed++ {
		c := NewCase(seed)
		if _, _, err := parseAll(c.Sources); err != nil {
			t.Fatalf("seed %d (%s): mutated case rejected by front end: %v", seed, c.Name, err)
		}
		if len(c.Mutations) > 0 {
			mutated++
		}
	}
	if mutated < 10 {
		t.Fatalf("only %d/40 cases mutated; mutation layer is not firing", mutated)
	}
}

func TestClassOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pattern_sibling_leak_0":            "sibling-leak",
		"pattern_temporary_inconsistency_2": "temporary-inconsistency",
		"stage_0_1":                         "stage",
		"lib_alloc_node":                    "lib",
		"inflate_7":                         "mutated",
		"main":                              "main",
		"filler_3":                          "other",
	} {
		if got := classOf(fn); got != want {
			t.Errorf("classOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// sweepClean runs a 25-seed window from start and fails the test unless
// the summary is the versioned document of a clean sweep: no harness
// error and no unallowlisted violation of any kind.
func sweepClean(t *testing.T, start int64) *Summary {
	t.Helper()
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	sum, err := Sweep(context.Background(), SweepConfig{Seeds: 25, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Schema != SummarySchemaV1 {
		t.Errorf("summary schema %q, want %q", sum.Schema, SummarySchemaV1)
	}
	if !sum.Clean() {
		for _, f := range sum.Failures {
			t.Errorf("FAIL %s (seed %d): %s", f.Case, f.Seed, f.Violation)
		}
		t.Fatalf("sweep not clean: %d error(s), %d failure(s)", sum.Errors, len(sum.Failures))
	}
	for kind, n := range map[string]int{
		"soundness":   sum.Soundness.Failed,
		"parity":      sum.Parity.Failed,
		"determinism": sum.Determinism.Failed,
		"throttle":    sum.Throttle.Failed,
	} {
		if n != 0 {
			t.Errorf("%d %s failure(s)", n, kind)
		}
	}
	return sum
}

// TestSweepClean is the bounded face of the invariant over seeds 0-24,
// the window CI's regionbench sweep runs: soundness and parity hold,
// and the dynamic oracle actually observes planted true-bug patterns
// (an oracle that never sees a violation proves nothing).
func TestSweepClean(t *testing.T) {
	sum := sweepClean(t, 0)
	if sum.DynamicViolations == 0 {
		t.Fatal("sweep observed no dynamic violations; the oracle is blind")
	}
	observed := 0
	for _, k := range PatternKinds() {
		if sum.PatternObserved[string(k)] > 0 {
			observed++
		}
	}
	if observed < 3 {
		t.Fatalf("only %d pattern kinds observed dynamically in the window", observed)
	}
}

// TestSweepThrottleWindow sweeps seeds 45-69, which cover the pinned
// cap1 lib-merge miss (seed 57): the reduced-precision configurations'
// soundness misses must all match allowlist entries, so the window
// demonstrably exercises the allowlist path, and the throttle-visibility
// invariant (internal capping always reaches the report) holds.
func TestSweepThrottleWindow(t *testing.T) {
	sum := sweepClean(t, 45)
	if sum.Soundness.Allowed == 0 {
		t.Error("window no longer exercises the allowlist")
	}
	if len(sum.AllowedByRule) == 0 {
		t.Error("summary has no allowed_by_rule buckets")
	}
}

// TestCap1LibMergeRegression pins the first divergence triaged from
// the default 100-seed sweep (see testdata/sweep-manifest.json):
// seed 57's o-lib case, where a region-op-swap mutation reroutes the
// shared library's allocation to the caller's pool. The resulting
// dynamic pair has both allocation sites inside lib_alloc_node, so
// distinguishing its instances needs context cloning: the default
// configuration must report it, ContextCap=1 must miss it (the
// documented Section 7 ablation), and the miss must be absorbed by
// an explicit allowlist entry — never a silent pass.
func TestCap1LibMergeRegression(t *testing.T) {
	c := NewCase(57)
	if c.Spec.Name != "o-lib" {
		t.Fatalf("seed 57 derived %s; the template cycle changed — re-triage the sweep", c.Spec.Name)
	}
	h := NewHarness()
	res, err := h.Check(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unallowed()) != 0 {
		t.Fatalf("unexpected unallowlisted violations: %v", res.Unallowed())
	}
	var cap1Miss *Violation
	for i, v := range res.Violations {
		if v.Kind == KindSoundness && v.Config == "cap1" && v.Class == "lib" {
			cap1Miss = &res.Violations[i]
		}
		if v.Kind == KindSoundness && v.Config == "default" {
			t.Fatalf("default config missed a dynamic pair: %s", v)
		}
	}
	if cap1Miss == nil {
		t.Fatal("cap1 no longer misses the lib-merge pair; the regression shape changed — update the manifest")
	}
	if !cap1Miss.Allowed || cap1Miss.Rule == "" {
		t.Fatalf("cap1 miss not explicitly allowlisted: %s", *cap1Miss)
	}
	// Misses arrive pre-triaged: the nearest reported warning's
	// derivation tree rides along (or, for an empty report, a note
	// saying nothing was derived).
	if cap1Miss.Explanation == "" {
		t.Fatal("cap1 soundness miss carries no explanation")
	}
	if !strings.Contains(cap1Miss.Explanation, "nearest warning") &&
		!strings.Contains(cap1Miss.Explanation, "no warnings reported") {
		t.Fatalf("cap1 miss explanation is neither a tree nor the empty-report note:\n%s", cap1Miss.Explanation)
	}
}

// TestHarnessDetectsBrokenAnalysis is the harness's own oracle: wire
// in an analysis whose pairs rule is deliberately broken (every
// warning dropped) and the harness must report an unallowlisted
// soundness violation, the shrinker must reduce the case, and the
// repro writer must persist it.
func TestHarnessDetectsBrokenAnalysis(t *testing.T) {
	c := NewCase(0) // o-sibling, unmutated: plants a true sibling leak
	h := NewHarness()
	h.Configs = []AnalysisConfig{{Name: "default", Opts: core.Options{}, Sound: true}}
	h.AnalyzeFn = func(opts core.Options, sources map[string]string) (*core.Analysis, error) {
		a, err := core.AnalyzeSource(opts, sources)
		if err == nil {
			a.Report.Warnings = nil // the broken pairs rule
		}
		return a, err
	}
	res, err := h.Check(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Unallowed()
	if len(bad) == 0 {
		t.Fatal("broken analysis not detected: no unallowlisted violations")
	}
	v := bad[0]
	if v.Kind != KindSoundness || v.Class != string(workloads.SiblingLeak) {
		t.Fatalf("expected a sibling-leak soundness violation, got %s", v)
	}
	if !strings.Contains(v.Explanation, "no warnings reported") {
		t.Fatalf("empty-report miss should note nothing was derived, got: %q", v.Explanation)
	}

	minimized := Minimize(c.Sources, h.FailurePredicate(v), 0)
	if lineCount(minimized) >= lineCount(c.Sources) {
		t.Fatalf("shrinker made no progress: %d -> %d lines",
			lineCount(c.Sources), lineCount(minimized))
	}
	if !h.FailurePredicate(v)(minimized) {
		t.Fatal("minimized case no longer fails")
	}

	dir := filepath.Join(t.TempDir(), "repro")
	if err := NewRepro(res, minimized).Write(dir, res.Reports); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"case.json",
		filepath.Join("src", c.Exe.Name+".c"),
		filepath.Join("min", c.Exe.Name+".c"),
		"report-default-explicit.txt",
		"report-default-bdd.txt",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("repro artifact %s missing: %v", want, err)
		}
	}
}

func lineCount(sources map[string]string) int {
	n := 0
	for _, src := range sources {
		n += strings.Count(src, "\n")
	}
	return n
}

// TestMinimizeDiscardsInvalid: the shrinker must treat candidates the
// predicate rejects (including ill-formed programs) as
// non-reproducing and keep the last failing form.
func TestMinimizeDiscardsInvalid(t *testing.T) {
	src := map[string]string{"a.c": "int f(void) {\n    return 1;\n}\nint main(void) {\n    int x;\n    x = f();\n    return x;\n}\n"}
	// Fails iff still well-formed and f is still defined.
	pred := func(cand map[string]string) bool {
		_, _, err := parseAll(cand)
		return err == nil && strings.Contains(cand["a.c"], "int f(void)")
	}
	min := Minimize(src, pred, 0)
	if !pred(min) {
		t.Fatal("minimized form does not satisfy the predicate")
	}
	// The call to f cannot be deleted (deleting it alone keeps the
	// program valid, so the shrinker will try) — but x = f() must
	// stay or go atomically with x's uses; whatever remains must be
	// well-formed.
	if _, _, err := parseAll(min); err != nil {
		t.Fatalf("minimized form ill-formed: %v", err)
	}
}
