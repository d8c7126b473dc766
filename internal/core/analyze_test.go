package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// run analyzes a single source file with default options.
func run(t *testing.T, src string) *Analysis {
	t.Helper()
	return runOpts(t, Options{}, src)
}

func runOpts(t *testing.T, opts Options, src string) *Analysis {
	t.Helper()
	a, err := AnalyzeSource(opts, map[string]string{"test.c": src})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// rcPrelude declares the RC-style region interface of the paper's toy
// language (Section 4.1).
const rcPrelude = `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
extern void deleteregion(region_t *r);
`

// aprPrelude declares the Figure 6 APR pools interface.
const aprPrelude = `
typedef struct apr_pool_t apr_pool_t;
typedef long apr_status_t;
typedef unsigned long apr_size_t;
typedef apr_status_t (*cleanup_t)(void *data);
extern apr_status_t apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, apr_size_t size);
extern void *apr_pcalloc(apr_pool_t *p, apr_size_t size);
extern void apr_pool_clear(apr_pool_t *p);
extern void apr_pool_destroy(apr_pool_t *p);
extern void apr_pool_cleanup_register(apr_pool_t *p, const void *data, cleanup_t plain_cleanup, cleanup_t child_cleanup);
`

// --- Figure 1: the connection/request example (consistent) ---

func TestFigure1ConsistentHierarchy(t *testing.T) {
	a := run(t, rcPrelude+`
struct conn_t { int fd; };
struct req_t { struct conn_t *connection; };
int main(void) {
    region_t *r;
    region_t *subr;
    struct conn_t *conn;
    struct req_t *req;
    r = rnew(NULL);
    conn = ralloc(r);
    subr = rnew(r);
    req = ralloc(subr);
    req->connection = conn;
    return 0;
}`)
	if n := len(a.Report.Warnings); n != 0 {
		t.Fatalf("consistent Figure 1 produced %d warnings:\n%s", n, a.Report)
	}
	if a.Report.Stats.R != 2 {
		t.Fatalf("R = %d, want 2", a.Report.Stats.R)
	}
	if a.Report.Stats.H != 2 {
		t.Fatalf("H = %d, want 2", a.Report.Stats.H)
	}
	// The access relation has the req->connection edge.
	if a.Report.Stats.Heap != 1 {
		t.Fatalf("heap = %d, want 1", a.Report.Stats.Heap)
	}
}

// --- Figure 2: the four subregion relations ---

func TestFigure2CaseA_SameRegion(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r;
    struct obj *o1;
    struct obj *o2;
    r = rnew(NULL);
    o1 = ralloc(r);
    o2 = ralloc(r);
    o2->p = o1;
    return 0;
}`)
	if len(a.Report.Warnings) != 0 {
		t.Fatalf("intra-region pointer flagged:\n%s", a.Report)
	}
}

func TestFigure2CaseB_HolderInSubregion(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1;
    region_t *r2;
    struct obj *o1;
    struct obj *o2;
    r1 = rnew(NULL);
    r2 = rnew(r1);
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`)
	if len(a.Report.Warnings) != 0 {
		t.Fatalf("safe inter-region pointer (r2 < r1) flagged:\n%s", a.Report)
	}
}

func TestFigure2CaseC_SiblingsUnrelated(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1;
    region_t *r2;
    struct obj *o1;
    struct obj *o2;
    r1 = rnew(NULL);
    r2 = rnew(NULL);
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`)
	ws := a.Report.Warnings
	if len(ws) != 1 {
		t.Fatalf("sibling-region pointer: %d warnings, want 1:\n%s", len(ws), a.Report)
	}
	if !ws[0].High() {
		t.Fatal("unrelated-region pointer should be high-ranked")
	}
}

func TestFigure2CaseD_PointeeInSubregion(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *p; };
int main(void) {
    region_t *r1;
    region_t *r2;
    struct obj *o1;
    struct obj *o2;
    r2 = rnew(NULL);
    r1 = rnew(r2);
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`)
	ws := a.Report.Warnings
	if len(ws) != 1 {
		t.Fatalf("inverted hierarchy: %d warnings, want 1:\n%s", len(ws), a.Report)
	}
	// Owner regions are related (r1 < r2), just in the wrong
	// direction, so the Section 5.4 heuristic ranks this low.
	if ws[0].High() {
		t.Fatal("related-but-inverted pair should not be high-ranked by the paper's heuristic")
	}
}

// --- Figure 3: aliasing makes may-subregion unsound ---

func TestFigure3AliasingInconsistency(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *f; };
int main(int P, int Q) {
    region_t *r0;
    region_t *r1;
    region_t *r;
    region_t *r2;
    struct obj *o1;
    struct obj *o2;
    r0 = rnew(NULL);
    r1 = rnew(NULL);
    o1 = ralloc(r1);
    if (P) r = r0;
    if (Q) r = r1;
    r2 = rnew(r);
    o2 = ralloc(r2);
    o2->f = o1;
    return 0;
}`)
	// r2's candidate parents are {r0, r1}; the join collapses it to
	// the root, so r2 has no partial order with r1 and the o2->f
	// pointer must be reported.
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("Figure 3 inconsistency missed:\n%s", a.Report)
	}
	// Verify the collapse actually happened: some region has two
	// candidates and root parent.
	found := false
	for _, r := range a.Regions {
		if len(r.Cands) == 2 && r.Parent == RootRegion {
			found = true
		}
	}
	if !found {
		t.Fatal("multi-parent region not collapsed to root join")
	}
}

// multiParentChildSource gives the joined region r2 a unique-parent
// child r3 that owns an object pointing into r2.
const multiParentChildSource = rcPrelude + `
struct obj { struct obj *f; };
int main(int P, int Q) {
    region_t *r0;
    region_t *r1;
    region_t *r;
    region_t *r2;
    region_t *r3;
    struct obj *o2;
    struct obj *o3;
    r0 = rnew(NULL);
    r1 = rnew(NULL);
    if (P) r = r0;
    if (Q) r = r1;
    r2 = rnew(r);
    r3 = rnew(r2);
    o2 = ralloc(r2);
    o3 = ralloc(r3);
    o3->f = o2;
    return 0;
}`

// joinCycleSource makes f's join close a cycle: f's candidates g and
// h are both subregions of d, which is f's own subregion.
const joinCycleSource = rcPrelude + `
struct obj { struct obj *f; };
int main(int c) {
    region_t *p;
    region_t *f;
    region_t *d;
    region_t *g;
    region_t *h;
    struct obj *of;
    struct obj *od;
    f = rnew(p);
    d = rnew(f);
    g = rnew(d);
    h = rnew(d);
    p = g;
    if (c) p = h;
    of = ralloc(f);
    od = ralloc(d);
    of->f = od;
    od->f = of;
    return 0;
}`

// joinedAndChild returns the one region with two candidate parents
// and the region whose only candidate it is.
func joinedAndChild(t *testing.T, a *Analysis) (joined, child int) {
	t.Helper()
	joined, child = -1, -1
	for i, r := range a.Regions {
		if len(r.Cands) == 2 {
			joined = i
		}
	}
	for i, r := range a.Regions {
		if len(r.Cands) == 1 && r.Cands[0] == joined {
			child = i
		}
	}
	if joined < 0 || child < 0 {
		t.Fatalf("no joined region with a unique-parent child: %+v", a.Regions)
	}
	return joined, child
}

// TestMultiParentChildKeepsItsParent: a region whose only candidate
// parent is a multi-parent region stays under it after the join, so
// r3 ⊑ r2 and o3->f = o2 is consistent.
func TestMultiParentChildKeepsItsParent(t *testing.T) {
	a := run(t, multiParentChildSource)
	r2, r3 := joinedAndChild(t, a)
	if got := a.Regions[r2].Parent; got != RootRegion {
		t.Errorf("r2 joins under region %d, want the root", got)
	}
	if got := a.Regions[r3].Parent; got != r2 {
		t.Errorf("r3 has parent %d, want r2 (%d)", got, r2)
	}
	if n := len(a.Report.Warnings); n != 0 || a.Report.Stats.RPairs != 11 {
		t.Errorf("%d warnings, R-pair=%d; want 0 and 11:\n%s", n, a.Report.Stats.RPairs, a.Report)
	}
}

// TestJoinCycleAttachesJoiningRegionToRoot pins the cycle rule: an
// edge that would close a parent cycle attaches its child to the root.
// Here f's join is d, which already descends from f, so f goes to the
// root and d stays under f: of -> od points into a subregion (a low
// warning) and od -> of is consistent.
func TestJoinCycleAttachesJoiningRegionToRoot(t *testing.T) {
	a := run(t, joinCycleSource)
	f, d := joinedAndChild(t, a)
	if got := a.Regions[f].Parent; got != RootRegion {
		t.Errorf("f has parent %d, want the root", got)
	}
	if got := a.Regions[d].Parent; got != f {
		t.Errorf("d has parent %d, want f (%d)", got, f)
	}
	ws := a.Report.Warnings
	if len(ws) != 1 {
		t.Fatalf("%d warnings, want 1:\n%s", len(ws), a.Report)
	}
	if ws[0].High() || ws[0].IPair.Example.Evidence != [2]int{f, d} {
		t.Errorf("warning high=%v evidence %v, want low (%d,%d)", ws[0].High(), ws[0].IPair.Example.Evidence, f, d)
	}
}

// TestRegionTree checks the invariant collapseParents establishes on
// the paper's Figure 1, the small corpus at two seeds, a fan-out tree
// and the two join probes: every region hangs under the root with
// Depth one more than its parent's, leqChain walks Depth+1 regions to
// the root, and RPairCount equals a count over Leq.
func TestRegionTree(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]map[string]string{
		"figure1":            {"figure1.c": string(fig1)},
		"fanout5":            {"fanout.c": fanOutSource(5)},
		"multi-parent-child": {"test.c": multiParentChildSource},
		"join-cycle":         {"test.c": joinCycleSource},
	}
	for _, seed := range []int64{2008, 77} {
		for _, spec := range workloads.SmallCorpus() {
			pkg := workloads.Generate(spec, seed)
			for _, exe := range pkg.Exes {
				programs[fmt.Sprintf("seed%d/%s", seed, exe.Name)] = pkg.SourcesFor(exe)
			}
		}
	}
	for name, sources := range programs {
		a, err := AnalyzeSource(Options{}, sources)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var unrelated int64
		for x := 1; x < len(a.Regions); x++ {
			r := a.Regions[x]
			if r.Parent < 0 || r.Depth != a.Regions[r.Parent].Depth+1 {
				t.Errorf("%s: region %d has parent %d and depth %d", name, x, r.Parent, r.Depth)
				continue
			}
			if chain := a.leqChain(x); len(chain) != r.Depth+1 || chain[len(chain)-1] != RootRegion {
				t.Errorf("%s: leqChain(%d) = %v at depth %d", name, x, chain, r.Depth)
			}
			for y := 1; y < len(a.Regions); y++ {
				if y != x && !a.Leq(x, y) {
					unrelated++
				}
			}
		}
		if got := a.RPairCount(); got != unrelated {
			t.Errorf("%s: RPairCount %d, counted %d", name, got, unrelated)
		}
	}
}

// --- Figure 5: flow-insensitive false warning on intra-region pointer ---

func TestFigure5FalseWarning(t *testing.T) {
	a := run(t, rcPrelude+`
struct obj { struct obj *f; };
int main(int c) {
    region_t *p;
    region_t *q;
    struct obj *o1;
    struct obj *o2;
    if (c) p = rnew(NULL); else p = rnew(NULL);
    q = rnew(p);
    o1 = ralloc(p);
    o2 = ralloc(q);
    o2->f = o1;
    return 0;
}`)
	// The program is actually consistent (whichever region p refers
	// to, q is its subregion), but the flow-insensitive analysis
	// cannot prove it: Figure 5(a) documents this false warning.
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("expected the documented Figure 5 false warning:\n%s", a.Report)
	}
}

// --- Figure 9: Subversion hash-table/iterator inconsistency ---

const figure9Source = aprPrelude + `
typedef struct apr_hash_t apr_hash_t;
typedef struct apr_hash_index_t apr_hash_index_t;

struct apr_hash_index_t { apr_hash_t *ht; };
struct apr_hash_t { apr_hash_index_t iterator; int count; };

/* apr/tables/apr_hash.c: Figure 9(c) */
apr_hash_t * apr_hash_make_impl(apr_pool_t *pool) {
    apr_hash_t *ht;
    ht = apr_palloc(pool, sizeof(struct apr_hash_t));
    return ht;
}
apr_hash_index_t * apr_hash_first(apr_pool_t *pool, apr_hash_t *ht) {
    apr_hash_index_t *hi;
    if (pool)
        hi = apr_palloc(pool, sizeof(*hi));
    else
        hi = &ht->iterator;
    hi->ht = ht;
    return hi;
}

/* libsvn_subr: svn_pool_create wrapper */
apr_pool_t * svn_pool_create_impl(apr_pool_t *parent) {
    apr_pool_t *pool;
    apr_pool_create(&pool, parent);
    return pool;
}

/* libsvn_subr/xml.c: Figure 9(b) */
void svn_xml_make_open_tag_hash(apr_pool_t *pool, apr_hash_t *ht) {
    apr_hash_index_t *hi;
    for (hi = apr_hash_first(pool, ht); hi; hi = NULL) {
    }
}

/* libsvn_subr/xml.c: Figure 9(a) */
void svn_xml_make_open_tag_v(apr_pool_t *pool) {
    apr_pool_t *subpool;
    apr_hash_t *ht;
    subpool = svn_pool_create_impl(pool);
    ht = apr_hash_make_impl(subpool);
    svn_xml_make_open_tag_hash(pool, ht);
    apr_pool_destroy(subpool);
}

int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    svn_xml_make_open_tag_v(pool);
    return 0;
}
`

func TestFigure9HashIteratorInconsistency(t *testing.T) {
	a := run(t, figure9Source)
	// The iterator hi (allocated in the parent pool) holds hi->ht
	// pointing into subpool: pool has no subregion order with subpool
	// in the required direction -> warning.
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("Figure 9 inconsistency missed:\n%s", a.Report)
	}
	// The fix from the paper: pass NULL so the iterator lives
	// intrusively in the hash table.
	fixed := strings.Replace(figure9Source,
		"for (hi = apr_hash_first(pool, ht); hi; hi = NULL)",
		"for (hi = apr_hash_first(NULL, ht); hi; hi = NULL)", 1)
	af, err := AnalyzeSource(Options{}, map[string]string{"test.c": fixed})
	if err != nil {
		t.Fatalf("analyze fixed: %v", err)
	}
	if n := len(af.Report.Warnings); n != 0 {
		t.Fatalf("fixed Figure 9 still has %d warnings:\n%s", n, af.Report)
	}
}

func TestFigure9AlternativeFixSubpool(t *testing.T) {
	// The paper's first fix: pass subpool instead of pool to
	// svn_xml_make_open_tag_hash.
	fixed := strings.Replace(figure9Source,
		"svn_xml_make_open_tag_hash(pool, ht);",
		"svn_xml_make_open_tag_hash(subpool, ht);", 1)
	a, err := AnalyzeSource(Options{}, map[string]string{"test.c": fixed})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if n := len(a.Report.Warnings); n != 0 {
		t.Fatalf("subpool fix still has %d warnings:\n%s", n, a.Report)
	}
}

// --- Figure 10: temporary inconsistency ---

func TestFigure10TemporaryInconsistency(t *testing.T) {
	a := run(t, aprPrelude+`
typedef struct apr_hash_t apr_hash_t;
apr_hash_t * apr_hash_make(apr_pool_t *p);
struct svn_wc_adm_access_t { apr_hash_t *set; };
typedef struct svn_wc_adm_access_t svn_wc_adm_access_t;

svn_wc_adm_access_t * adm_access_alloc(apr_pool_t *pool) {
    return apr_palloc(pool, sizeof(svn_wc_adm_access_t));
}

void do_open(apr_pool_t *pool, svn_wc_adm_access_t *associated,
             int write_lock, int levels_to_lock) {
    svn_wc_adm_access_t *lock;
    apr_pool_t *subpool;
    apr_pool_create(&subpool, pool);
    if (write_lock) lock = adm_access_alloc(pool);
    else lock = adm_access_alloc(pool);
    if (levels_to_lock != 0) {
        if (associated) lock->set = apr_hash_make(subpool);
        if (associated) { lock->set = associated->set; }
    }
    if (associated) lock->set = associated->set;
    apr_pool_destroy(subpool);
}

int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    do_open(pool, NULL, 1, 1);
    return 0;
}`)
	// lock (in pool) temporarily holds a hash table from subpool; the
	// flow-insensitive analysis reports it, as the paper documents.
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("Figure 10 temporary inconsistency not reported:\n%s", a.Report)
	}
}

// --- Section 6.2: the make_error_internal false positive ---

func TestMakeErrorInternalFalsePositive(t *testing.T) {
	a := run(t, aprPrelude+`
struct svn_error_t { struct svn_error_t *child; apr_pool_t *pool; };
typedef struct svn_error_t svn_error_t;

svn_error_t * make_error_internal(svn_error_t *child) {
    apr_pool_t *pool;
    svn_error_t *new_error;
    if (child)
        pool = child->pool;
    else
        apr_pool_create(&pool, NULL);
    new_error = apr_pcalloc(pool, sizeof(*new_error));
    new_error->child = child;
    new_error->pool = pool;
    return new_error;
}

int main(void) {
    apr_pool_t *p0;
    svn_error_t *e1;
    svn_error_t *e2;
    apr_pool_create(&p0, NULL);
    e1 = apr_pcalloc(p0, sizeof(*e1));
    e1->pool = p0;
    e2 = make_error_internal(e1);
    return 0;
}`)
	// The code is actually consistent (pool aliases child->pool when
	// child != NULL), but the path-insensitive analysis must warn —
	// the documented Section 6.2 false positive requiring path
	// sensitivity to eliminate.
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("expected the documented Section 6.2 false positive:\n%s", a.Report)
	}
}

// --- Figure 12: Apache vs Subversion XML parser creation ---

func TestFigure12ApacheParserConsistent(t *testing.T) {
	a := run(t, aprPrelude+`
struct apr_xml_parser { void *xp; };
typedef struct apr_xml_parser apr_xml_parser;
extern void *XML_ParserCreate(void *enc);
long cleanup_parser(void *data) { return 0; }

apr_xml_parser * apr_xml_parser_create(apr_pool_t *pool) {
    apr_xml_parser *parser;
    parser = apr_pcalloc(pool, sizeof(*parser));
    parser->xp = XML_ParserCreate(NULL);
    apr_pool_cleanup_register(pool, parser, cleanup_parser, cleanup_parser);
    return parser;
}

struct client { apr_xml_parser *parser; };
int main(void) {
    apr_pool_t *pool;
    struct client *c;
    apr_pool_create(&pool, NULL);
    c = apr_palloc(pool, sizeof(struct client));
    c->parser = apr_xml_parser_create(pool);
    return 0;
}`)
	if n := len(a.Report.Warnings); n != 0 {
		t.Fatalf("Apache-style parser (same pool) flagged %d warnings:\n%s", n, a.Report)
	}
}

func TestFigure12SubversionParserInconsistent(t *testing.T) {
	a := run(t, aprPrelude+`
struct svn_xml_parser_t { void *xp; };
typedef struct svn_xml_parser_t svn_xml_parser_t;
extern void *XML_ParserCreate(void *enc);

svn_xml_parser_t * svn_xml_make_parser(apr_pool_t *pool) {
    svn_xml_parser_t *svn_parser;
    apr_pool_t *subpool;
    apr_pool_create(&subpool, pool);
    svn_parser = apr_pcalloc(subpool, sizeof(*svn_parser));
    return svn_parser;
}

/* libsvn_wc/log.c:run_log */
struct log_runner { svn_xml_parser_t *parser; };
int main(void) {
    apr_pool_t *pool;
    struct log_runner *loggy;
    svn_xml_parser_t *parser;
    apr_pool_create(&pool, NULL);
    loggy = apr_pcalloc(pool, sizeof(*loggy));
    parser = svn_xml_make_parser(pool);
    loggy->parser = parser;
    return 0;
}`)
	// loggy (in pool) accesses the parser (in subpool): RegionWiz
	// "reports a warning for every such use" (Section 6.4).
	if len(a.Report.Warnings) == 0 {
		t.Fatalf("Figure 12 Subversion parser inconsistency missed:\n%s", a.Report)
	}
}
