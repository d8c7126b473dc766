package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// sources used for backend cross-checking: a mix of consistent and
// inconsistent programs.
var crossCheckSources = []string{
	// Figure 1 (consistent).
	rcPrelude + `
struct conn_t { int fd; };
struct req_t { struct conn_t *connection; };
int main(void) {
    region_t *r; region_t *subr;
    struct conn_t *conn; struct req_t *req;
    r = rnew(NULL);
    conn = ralloc(r);
    subr = rnew(r);
    req = ralloc(subr);
    req->connection = conn;
    return 0;
}`,
	// Siblings (one warning).
	rcPrelude + `
struct obj { struct obj *p; };
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    r1 = rnew(NULL); r2 = rnew(NULL);
    o1 = ralloc(r1); o2 = ralloc(r2);
    o2->p = o1;
    o1->p = o2;
    return 0;
}`,
	// Deep hierarchy with a cross-link.
	rcPrelude + `
struct obj { struct obj *p; };
int main(void) {
    region_t *a; region_t *b; region_t *c; region_t *d;
    struct obj *oa; struct obj *oc; struct obj *od;
    a = rnew(NULL); b = rnew(a); c = rnew(b); d = rnew(a);
    oa = ralloc(a); oc = ralloc(c); od = ralloc(d);
    oc->p = oa;  /* safe: c <= a */
    od->p = oc;  /* bad: d and c unrelated */
    oa->p = od;  /* bad: a not <= d */
    return 0;
}`,
	// Figure 9.
	figure9Source,
}

func TestBackendsAgree(t *testing.T) {
	for i, src := range crossCheckSources {
		t.Run(fmt.Sprintf("src%d", i), func(t *testing.T) {
			exp := runOpts(t, Options{Solver: SolverOptions{Backend: ExplicitBackend}}, src)
			bdd := runOpts(t, Options{Solver: SolverOptions{Backend: BDDBackend}}, src)
			expPairs := exp.computeObjectPairs(context.Background())
			bddPairs := bdd.computeObjectPairsBDD(context.Background())
			if !reflect.DeepEqual(expPairs, bddPairs) {
				t.Fatalf("backends disagree:\nexplicit: %+v\nbdd:      %+v", expPairs, bddPairs)
			}
			if len(exp.Report.Warnings) != len(bdd.Report.Warnings) {
				t.Fatalf("warning counts differ: %d vs %d",
					len(exp.Report.Warnings), len(bdd.Report.Warnings))
			}
		})
	}
}

func TestCorrelationFrameworkAgrees(t *testing.T) {
	// Definition 4.1's correlation must be violated exactly when the
	// pipeline reports object pairs between created regions.
	for i, src := range crossCheckSources {
		t.Run(fmt.Sprintf("src%d", i), func(t *testing.T) {
			a := run(t, src)
			corr := a.Correlation()
			pairs := a.computeObjectPairs(context.Background())
			// The correlation ranges over created regions only; filter
			// pairs whose evidence involves the root.
			var nonRoot int
			for _, p := range pairs {
				if p.Evidence[0] != RootRegion && p.Evidence[1] != RootRegion {
					nonRoot++
				}
			}
			if (nonRoot > 0) == corr.Consistent() {
				t.Fatalf("correlation consistent=%v but %d non-root object pairs",
					corr.Consistent(), nonRoot)
			}
		})
	}
}

func TestContextSensitivityMatters(t *testing.T) {
	// A helper allocates an object in whatever region it is given.
	// Context-sensitively the program is consistent; merging contexts
	// (cap=1) loses that and yields a false warning — the Section 6.3
	// precision/scalability trade-off.
	src := rcPrelude + `
struct obj { struct obj *p; };
struct obj * allocIn(region_t *r) { return ralloc(r); }
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    struct obj *p1; struct obj *p2;
    r1 = rnew(NULL);
    r2 = rnew(NULL);
    o1 = allocIn(r1);
    p1 = allocIn(r1);
    o2 = allocIn(r2);
    p2 = allocIn(r2);
    o1->p = p1;   /* same region via distinct call paths */
    o2->p = p2;
    return 0;
}`
	sensitive := runOpts(t, Options{ContextCap: 4096}, src)
	if n := len(sensitive.Report.Warnings); n != 0 {
		t.Fatalf("context-sensitive run has %d warnings, want 0:\n%s", n, sensitive.Report)
	}
	insensitive := runOpts(t, Options{ContextCap: 1}, src)
	if n := len(insensitive.Report.Warnings); n == 0 {
		t.Fatal("context-insensitive run should produce a false warning")
	}
}

func TestHeapCloningMatters(t *testing.T) {
	// Two regions created through the same wrapper call site: without
	// heap cloning they are one abstract region, losing the sibling
	// inconsistency (a false negative the paper's Section 7 argues
	// heap cloning prevents).
	src := rcPrelude + `
struct obj { struct obj *p; };
region_t * makeRegion(void) { return rnew(NULL); }
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    r1 = makeRegion();
    r2 = makeRegion();
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`
	cloned := runOpts(t, Options{}, src)
	if n := len(cloned.Report.Warnings); n != 1 {
		t.Fatalf("heap-cloned run has %d warnings, want 1:\n%s", n, cloned.Report)
	}
	uncloned := runOpts(t, Options{HeapCloning: Bool(false)}, src)
	if n := len(uncloned.Report.Warnings); n != 0 {
		t.Fatalf("uncloned run has %d warnings, want 0 (merged regions): %s", n, uncloned.Report)
	}
	if uncloned.Report.Stats.R >= cloned.Report.Stats.R {
		t.Fatalf("uncloned R=%d should be < cloned R=%d",
			uncloned.Report.Stats.R, cloned.Report.Stats.R)
	}
}

func TestStatsColumns(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1; region_t *r2; region_t *r3;
    struct obj *o1; struct obj *o2;
    r1 = rnew(NULL);
    r2 = rnew(r1);
    r3 = rnew(r2);
    o1 = ralloc(r1);
    o2 = ralloc(r3);
    o1->p = o2;
    return 0;
}`)
	s := a.Report.Stats
	if s.R != 3 || s.H != 2 {
		t.Fatalf("R=%d H=%d, want 3/2", s.R, s.H)
	}
	if s.Sub != 3 { // r1<root (NULL parent means the root), r2<r1, r3<r2
		t.Fatalf("sub=%d, want 3", s.Sub)
	}
	if s.Own != 2 {
		t.Fatalf("own=%d, want 2", s.Own)
	}
	// R-pairs: ordered distinct pairs minus related. Related: (r2,r1),
	// (r3,r2), (r3,r1) -> 3. So 3*2 - 3 = 3.
	if s.RPairs != 3 {
		t.Fatalf("R-pairs=%d, want 3", s.RPairs)
	}
	// o1 (r1) -> o2 (r3): r1 not<= r3 -> 1 O-pair, 1 I-pair; owners
	// related in the other direction -> low rank.
	if s.OPairs != 1 || s.IPairs != 1 || s.High != 0 {
		t.Fatalf("O=%d I=%d high=%d, want 1/1/0", s.OPairs, s.IPairs, s.High)
	}
}

func TestHighRankedSortedFirst(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1; region_t *r2; region_t *child;
    struct obj *o1; struct obj *o2; struct obj *o3;
    r1 = rnew(NULL);
    r2 = rnew(NULL);
    child = rnew(r2);
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o3 = ralloc(child);
    o2->p = o1;  /* high: r2, r1 unrelated */
    o2->p = o3;  /* low: child <= r2 but r2 not<= child */
    return 0;
}`)
	ws := a.Report.Warnings
	if len(ws) != 2 {
		t.Fatalf("%d warnings, want 2:\n%s", len(ws), a.Report)
	}
	if !ws[0].High() || ws[1].High() {
		t.Fatalf("ranking order wrong: [%v %v]", ws[0].High(), ws[1].High())
	}
}

func TestMultiFileProgram(t *testing.T) {
	a, err := AnalyzeSource(Options{}, map[string]string{
		"api.c": rcPrelude + `
struct obj { struct obj *p; };
region_t *gr1;
region_t *gr2;
void setup(void) {
    gr1 = rnew(NULL);
    gr2 = rnew(NULL);
}`,
		"main.c": rcPrelude + `
struct obj;
extern struct obj *mkobj(region_t *r);
typedef struct region_t region2_t;
extern region_t *gr1;
extern region_t *gr2;
extern void setup(void);
int main(void) {
    setup();
    return 0;
}`,
	})
	if err != nil {
		t.Fatalf("multi-file analyze: %v", err)
	}
	if a.Report.Stats.R != 2 {
		t.Fatalf("R=%d, want 2", a.Report.Stats.R)
	}
}

func TestMissingEntryRejected(t *testing.T) {
	_, err := AnalyzeSource(Options{}, map[string]string{"a.c": `int helper(void) { return 0; }`})
	if err == nil {
		t.Fatal("missing main not rejected")
	}
}

func TestParseErrorSurfaced(t *testing.T) {
	_, err := AnalyzeSource(Options{}, map[string]string{"a.c": `int main( { return 0; }`})
	if err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestReportString(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    r1 = rnew(NULL); r2 = rnew(NULL);
    o1 = ralloc(r1); o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`)
	out := a.Report.String()
	for _, want := range []string{"HIGH", "dangling", "stats:", "R-pair"} {
		if !contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
