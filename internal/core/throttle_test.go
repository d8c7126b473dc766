package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// ptsFanSources is a program where one pointer variable accumulates a
// three-object points-to set (flow-insensitive accumulation over the
// three assignments), sized to exercise the PtsLimit boundary.
func ptsFanSources() map[string]string {
	return map[string]string{
		"fan.c": `
struct node { int *p; };
void *apr_palloc(void *r, int n);
void apr_pool_create(void **np, void *parent);
void apr_pool_destroy(void *r);
int main() {
    void *root; void *sub;
    apr_pool_create(&root, 0);
    apr_pool_create(&sub, root);
    struct node *a = apr_palloc(root, 8);
    struct node *b = apr_palloc(root, 8);
    struct node *c = apr_palloc(root, 8);
    struct node *p;
    p = a;
    p = b;
    p = c;
    p->p = apr_palloc(sub, 4);
    apr_pool_destroy(sub);
    return 0;
}`,
	}
}

// TestPtsLimitBoundary pins the cap's boundary semantics: a set whose
// size equals the limit stays exact (no ⊤ collapse, run not marked),
// while limit+1 collapses, counts the variable, and marks the run
// throttled all the way into the report JSON.
func TestPtsLimitBoundary(t *testing.T) {
	sources := ptsFanSources()

	exact, err := AnalyzeSource(Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if n := exact.Ptr.CappedVars(); n != 0 {
		t.Fatalf("unlimited run capped %d variables", n)
	}
	if exact.Report.Stats.Throttled() {
		t.Fatal("unlimited run marked throttled")
	}

	// At the set's exact size nothing collapses and the report matches
	// the unlimited run byte for byte.
	atLimit, err := AnalyzeSource(Options{Solver: SolverOptions{PtsLimit: 3}}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if n := atLimit.Ptr.CappedVars(); n != 0 {
		t.Fatalf("limit == set size capped %d variables; the boundary is off by one", n)
	}
	if got, want := canonicalReportText(t, atLimit.Report), canonicalReportText(t, exact.Report); got != want {
		t.Errorf("limit == set size changed the report:\n got %s\nwant %s", got, want)
	}

	capped, err := AnalyzeSource(Options{Solver: SolverOptions{PtsLimit: 2}}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if n := capped.Ptr.CappedVars(); n == 0 {
		t.Fatal("limit below set size capped no variables")
	}
	s := capped.Report.Stats
	if s.PtrCappedVars != capped.Ptr.CappedVars() {
		t.Errorf("report marks ptr_capped_vars=%d but the solver capped %d", s.PtrCappedVars, capped.Ptr.CappedVars())
	}
	if !s.Throttled() {
		t.Error("capped run not marked throttled")
	}
	for i, w := range capped.Report.Warnings {
		if !w.Throttled {
			t.Errorf("warning %d of a capped run not marked throttled", i)
		}
	}
	raw, err := capped.Report.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"precision"`) || !strings.Contains(string(raw), `"ptr_capped_vars"`) {
		t.Errorf("capped run's report JSON carries no precision block:\n%s", raw)
	}
}

// TestPtsLimitDeterministic: the ⊤ collapse must be deterministic —
// identical reports on both backends.
func TestPtsLimitDeterministic(t *testing.T) {
	sources := ptsFanSources()
	var want string
	for _, backend := range []Backend{ExplicitBackend, BDDBackend} {
		opts := Options{Solver: SolverOptions{PtsLimit: 2, Backend: backend}}
		a, err := AnalyzeSource(opts, sources)
		if err != nil {
			t.Fatalf("backend=%v: %v", backend, err)
		}
		if a.Ptr.CappedVars() == 0 {
			t.Fatalf("backend=%v: cap did not fire", backend)
		}
		got := canonicalReportText(t, a.Report)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("backend=%v report diverged:\n got %s\nwant %s", backend, got, want)
		}
	}
}

// ctxFanSources calls one allocator helper from three distinct call
// sites, so 2-CFA numbering wants three contexts for it and a context
// cap of 2 must merge — and be visible.
func ctxFanSources() map[string]string {
	return map[string]string{
		"ctx.c": `
struct node { int *p; };
void *apr_palloc(void *r, int n);
void apr_pool_create(void **np, void *parent);
void apr_pool_destroy(void *r);
struct node *mk(void *r) { struct node *n = apr_palloc(r, 8); return n; }
int main() {
    void *root; void *sub;
    apr_pool_create(&root, 0);
    apr_pool_create(&sub, root);
    struct node *a = mk(root);
    struct node *b = mk(root);
    struct node *c = mk(sub);
    c->p = apr_palloc(sub, 4);
    a->p = apr_palloc(sub, 4);
    apr_pool_destroy(sub);
    return 0;
}`,
	}
}

// TestContextCapVisibleInReport pins the satellite bug: a k-CFA run
// that hits its context cap must say so in the report — Capped used
// to stop at the Numbering and never reach Stats.
func TestContextCapVisibleInReport(t *testing.T) {
	a, err := AnalyzeSource(Options{KCFA: 2, ContextCap: 2}, ctxFanSources())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Numbering.Capped {
		t.Fatal("ContextCap=2 did not cap a three-site 2-CFA numbering; the fixture no longer exercises the cap")
	}
	s := a.Report.Stats
	if !s.CtxCapped {
		t.Error("numbering capped but the report does not mark ctx_capped")
	}
	if !s.Throttled() {
		t.Error("context-capped run not marked throttled")
	}
	raw, err := a.Report.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"ctx_capped"`) {
		t.Errorf("context-capped run's report JSON carries no ctx_capped marking:\n%s", raw)
	}
}

// TestOriginPolicyMarked: origin contexts are a precision trade by
// construction, so every origin run is throttled — even when nothing
// capped.
func TestOriginPolicyMarked(t *testing.T) {
	a, err := AnalyzeSource(Options{ContextPolicy: PolicyOrigin}, ctxFanSources())
	if err != nil {
		t.Fatal(err)
	}
	s := a.Report.Stats
	if s.Policy != PolicyOrigin {
		t.Fatalf("report marks policy=%q, want %q", s.Policy, PolicyOrigin)
	}
	if !s.Throttled() {
		t.Error("origin run not marked throttled")
	}
}

// TestQueryPairMatchesReport: the query verdict read from a finished
// analysis must agree with its report — every reported site pair
// queries inconsistent, its reversal (unreported here) queries
// consistent.
func TestQueryPairMatchesReport(t *testing.T) {
	sources := ptsFanSources()
	full, err := AnalyzeSource(Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	sites := full.PairSites()
	if len(sites) == 0 {
		t.Fatal("fixture reports no warnings; the query test needs at least one site pair")
	}
	reported := make(map[string]bool)
	for _, ps := range sites {
		reported[ps.Src.String()+"|"+ps.Dst.String()] = true
	}
	ctx := context.Background()
	for _, ps := range sites {
		ans, err := full.QueryPair(ctx, ps.Src.String(), ps.Dst.String())
		if err != nil {
			t.Fatalf("query %s -> %s: %v", ps.Src, ps.Dst, err)
		}
		if !ans.Inconsistent {
			t.Errorf("query %s -> %s consistent but the report warns", ps.Src, ps.Dst)
		}
		if ans.Pairs == 0 {
			t.Errorf("inconsistent answer for %s -> %s carries no object pairs", ps.Src, ps.Dst)
		}
		if reported[ps.Dst.String()+"|"+ps.Src.String()] {
			continue
		}
		rev, err := full.QueryPair(ctx, ps.Dst.String(), ps.Src.String())
		if err != nil {
			t.Fatalf("reverse query %s -> %s: %v", ps.Dst, ps.Src, err)
		}
		if rev.Inconsistent {
			t.Errorf("reverse query %s -> %s inconsistent but the report has no such warning", ps.Dst, ps.Src)
		}
	}

	// A throttled configuration must mark its answers.
	ps := sites[0]
	origin, err := AnalyzeSource(Options{ContextPolicy: PolicyOrigin}, sources)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := origin.QueryPair(ctx, ps.Src.String(), ps.Dst.String())
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Throttled {
		t.Error("origin-policy query answer not marked throttled")
	}

	// Unknown sites are a resolve error, bad shapes a config error, and
	// an analysis that never finished is an internal error.
	for _, tc := range []struct {
		name     string
		a        *Analysis
		src      string
		wantKind ErrorKind
	}{
		{"unknown site", full, "fan.c:9999", ErrResolve},
		{"malformed site", full, "nonsense", ErrConfig},
		{"unfinished analysis", &Analysis{}, ps.Src.String(), ErrInternal},
	} {
		_, err := tc.a.QueryPair(ctx, tc.src, ps.Dst.String())
		var aerr *Error
		if !errors.As(err, &aerr) || aerr.Kind != tc.wantKind {
			t.Errorf("%s: err = %v, want kind %v", tc.name, err, tc.wantKind)
		}
	}
}
