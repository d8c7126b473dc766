// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each bench
// reports the figures' headline numbers as custom metrics so a single
//
//	go test -bench=. -benchmem
//
// run reproduces the whole evaluation; cmd/regionbench prints the same
// data as formatted tables. EXPERIMENTS.md records paper-vs-measured.
package regionwiz

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bdd"
	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pointer"
	"repro/internal/workloads"
	"repro/regions"
)

// mustAnalyze runs the analyzer over one source, failing the bench on
// any front-end or pipeline error.
func mustAnalyze(b *testing.B, opts core.Options, src string) *core.Analysis {
	b.Helper()
	a, err := core.AnalyzeSource(opts, map[string]string{"bench.c": src})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

const rcPrelude = `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
extern void deleteregion(region_t *r);
struct obj { struct obj *p; };
`

// --- Figure 2: the four subregion relations ---

// BenchmarkFigure2Verdicts analyzes the four Figure 2 cases and checks
// the verdicts: (a) and (b) safe, (c) and (d) reported.
func BenchmarkFigure2Verdicts(b *testing.B) {
	cases := []struct {
		name     string
		hier     string
		warnings int
	}{
		{"a_same_region", "r1 = rnew(NULL); r2 = r1;", 0},
		{"b_holder_in_subregion", "r1 = rnew(NULL); r2 = rnew(r1);", 0},
		{"c_unrelated", "r1 = rnew(NULL); r2 = rnew(NULL);", 1},
		{"d_pointee_in_subregion", "r2 = rnew(NULL); r1 = rnew(r2);", 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := rcPrelude + fmt.Sprintf(`
int main(void) {
    region_t *r1; region_t *r2;
    struct obj *o1; struct obj *o2;
    %s
    o1 = ralloc(r1);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`, tc.hier)
			var warnings int
			for i := 0; i < b.N; i++ {
				a := mustAnalyze(b, core.Options{}, src)
				warnings = len(a.Report.Warnings)
			}
			if warnings != tc.warnings {
				b.Fatalf("%s: %d warnings, want %d", tc.name, warnings, tc.warnings)
			}
			b.ReportMetric(float64(warnings), "warnings")
		})
	}
}

// --- Figure 3: aliasing requires the under-approximation ---

func BenchmarkFigure3Aliasing(b *testing.B) {
	src := rcPrelude + `
int main(int P, int Q) {
    region_t *r0; region_t *r1; region_t *r; region_t *r2;
    struct obj *o1; struct obj *o2;
    r0 = rnew(NULL);
    r1 = rnew(NULL);
    o1 = ralloc(r1);
    if (P) r = r0;
    if (Q) r = r1;
    r2 = rnew(r);
    o2 = ralloc(r2);
    o2->p = o1;
    return 0;
}`
	var warnings int
	for i := 0; i < b.N; i++ {
		a := mustAnalyze(b, core.Options{}, src)
		warnings = len(a.Report.Warnings)
	}
	if warnings == 0 {
		b.Fatal("Figure 3 inconsistency missed")
	}
	b.ReportMetric(float64(warnings), "warnings")
}

// --- Figure 7: the benchmark corpus ---

// BenchmarkFigure7Benchmarks generates the six-package corpus and
// reports its size columns (KLOC, executables).
func BenchmarkFigure7Benchmarks(b *testing.B) {
	specs := workloads.PaperCorpus()
	var kloc float64
	var exes int
	for i := 0; i < b.N; i++ {
		kloc, exes = 0, 0
		for _, spec := range specs {
			pkg := workloads.Generate(spec, 2008)
			kloc += pkg.KLOC
			exes += len(pkg.Exes)
		}
	}
	b.ReportMetric(kloc, "KLOC")
	b.ReportMetric(float64(exes), "exes")
}

// --- Figure 8: warning counts per package ---

// BenchmarkFigure8Warnings analyzes the corpus (small scale for bench
// time) and reports the headline counts: total high-ranked warnings
// and planted inconsistencies found.
func BenchmarkFigure8Warnings(b *testing.B) {
	specs := workloads.SmallCorpus()
	pkgs := make([]*workloads.Package, len(specs))
	for i, spec := range specs {
		pkgs[i] = workloads.Generate(spec, 2008)
	}
	var high, warnings int
	for i := 0; i < b.N; i++ {
		high, warnings = 0, 0
		for _, pkg := range pkgs {
			for _, exe := range pkg.Exes {
				a, err := core.AnalyzeSource(core.Options{},
					pkg.SourcesFor(exe))
				if err != nil {
					b.Fatal(err)
				}
				high += a.Report.Stats.High
				warnings += len(a.Report.Warnings)
			}
		}
	}
	b.ReportMetric(float64(high), "high-ranked")
	b.ReportMetric(float64(warnings), "warnings")
}

// --- Figure 9 / 10 / 12: the case studies ---

func BenchmarkFigure9HashIterator(b *testing.B) {
	benchCaseStudy(b, figure9CaseStudy, 1)
}

func BenchmarkFigure10TemporaryInconsistency(b *testing.B) {
	benchCaseStudy(b, figure10CaseStudy, 1)
}

func BenchmarkFigure12XMLParsers(b *testing.B) {
	b.Run("apache_consistent", func(b *testing.B) {
		benchCaseStudy(b, figure12Apache, 0)
	})
	b.Run("subversion_inconsistent", func(b *testing.B) {
		benchCaseStudy(b, figure12Subversion, 1)
	})
}

func benchCaseStudy(b *testing.B, src string, wantWarnings int) {
	b.Helper()
	var warnings int
	for i := 0; i < b.N; i++ {
		a := mustAnalyze(b, core.Options{}, src)
		warnings = len(a.Report.Warnings)
	}
	if warnings != wantWarnings {
		b.Fatalf("%d warnings, want %d", warnings, wantWarnings)
	}
	b.ReportMetric(float64(warnings), "warnings")
}

// --- Figure 11: quantitative results ---

// BenchmarkFigure11Quantitative analyzes one executable per package
// (small scale) and reports the Figure 11 columns as metrics. Run
// cmd/regionbench -table 11 for the full formatted table.
func BenchmarkFigure11Quantitative(b *testing.B) {
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		exe := pkg.Exes[0]
		b.Run(spec.Name, func(b *testing.B) {
			var s core.Stats
			for i := 0; i < b.N; i++ {
				a, err := core.AnalyzeSource(core.Options{},
					pkg.SourcesFor(exe))
				if err != nil {
					b.Fatal(err)
				}
				s = a.Report.Stats
			}
			b.ReportMetric(float64(s.R), "R")
			b.ReportMetric(float64(s.H), "H")
			b.ReportMetric(float64(s.Heap), "heap")
			b.ReportMetric(float64(s.RPairs), "R-pairs")
			b.ReportMetric(float64(s.OPairs), "O-pairs")
			b.ReportMetric(float64(s.Contexts), "contexts")
		})
	}
}

// BenchmarkFigure11ContextScaling sweeps the pipeline depth of a
// generated package: call paths (and so contexts, R, H, and R-pairs)
// grow exponentially with depth, reproducing Figure 11's observation
// that "as calling contexts grow, the numbers of objects increase fast
// and lead to a large amount of relations and region pairs" — the svn
// 26-hour effect, in miniature.
func BenchmarkFigure11ContextScaling(b *testing.B) {
	for _, depth := range []int{2, 3, 4, 5} {
		spec := workloads.Spec{Name: "scale", Exes: 1, Stages: 2,
			Depth: depth, Fanout: 2, Interface: "apr"}
		pkg := workloads.Generate(spec, 2008)
		exe := pkg.Exes[0]
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var s core.Stats
			for i := 0; i < b.N; i++ {
				a, err := core.AnalyzeSource(core.Options{}, pkg.SourcesFor(exe))
				if err != nil {
					b.Fatal(err)
				}
				s = a.Report.Stats
			}
			b.ReportMetric(float64(s.Contexts), "contexts")
			b.ReportMetric(float64(s.R), "R")
			b.ReportMetric(float64(s.RPairs), "R-pairs")
		})
	}
}

// --- Section 6.3: BDD variable order matters ---

// BenchmarkBDDVariableOrder solves the same transitive closure with
// bit-interleaved versus contiguous domain allocation, reproducing the
// paper's observation that BDD variable order dominates solver cost.
func BenchmarkBDDVariableOrder(b *testing.B) {
	const n = 64
	build := func(interleaved bool) (int, int) {
		m := bdd.New()
		var d0, d1 *bdd.Domain
		if interleaved {
			ds := m.NewInterleavedDomains([]string{"a", "b"}, []uint64{n, n})
			d0, d1 = ds[0], ds[1]
		} else {
			d0 = m.NewDomain("a", n)
			d1 = m.NewDomain("b", n)
		}
		eq := d0.EqDomain(d1)
		return m.NumNodes(), int(m.SatCount(eq))
	}
	b.Run("interleaved", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes, _ = build(true)
		}
		b.ReportMetric(float64(nodes), "bdd-nodes")
	})
	b.Run("contiguous", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes, _ = build(false)
		}
		b.ReportMetric(float64(nodes), "bdd-nodes")
	})
}

// BenchmarkDatalogClosure exercises the bddbddb-substitute on a
// transitive closure, the shape of the paper's leq computation,
// comparing naive and semi-naive (differential) evaluation.
func BenchmarkDatalogClosure(b *testing.B) {
	run := func(b *testing.B, semiNaive bool) {
		for i := 0; i < b.N; i++ {
			p := datalog.NewProgram()
			d := p.Domain("N", 128)
			edge := p.Relation("edge", d.At(0), d.At(1))
			path := p.Relation("path", d.At(0), d.At(1))
			for v := uint64(0); v < 127; v++ {
				edge.Add(v, v+1)
			}
			rules := []*datalog.Rule{
				datalog.NewRule(datalog.T(path, "x", "y"), datalog.T(edge, "x", "y")),
				datalog.NewRule(datalog.T(path, "x", "z"), datalog.T(path, "x", "y"), datalog.T(path, "y", "z")),
			}
			if semiNaive {
				p.SolveSemiNaive(context.Background(), rules, 0)
			} else {
				p.Solve(context.Background(), rules, 0)
			}
			if path.Count() != 128*127/2 {
				b.Fatal("closure wrong")
			}
		}
	}
	b.Run("naive", func(b *testing.B) { run(b, false) })
	b.Run("seminaive", func(b *testing.B) { run(b, true) })
}

// --- Ablations (DESIGN.md Section 6) ---

// ablationSource is a mid-size generated executable reused by the
// ablation benches.
func ablationSource(b *testing.B) string {
	spec := workloads.Spec{Name: "ablate", Exes: 1, Stages: 3, Depth: 3,
		Fanout: 2, FillerFuncs: 20, Interface: "apr",
		Plants: []workloads.Pattern{workloads.SiblingLeak, workloads.IteratorEscape}}
	return workloads.Generate(spec, 99).Exes[0].Source
}

// BenchmarkAblationBackend compares the explicit and BDD pair engines.
func BenchmarkAblationBackend(b *testing.B) {
	src := ablationSource(b)
	for _, backend := range []struct {
		name string
		be   core.Backend
	}{{"explicit", core.ExplicitBackend}, {"bdd", core.BDDBackend}} {
		b.Run(backend.name, func(b *testing.B) {
			var warnings int
			for i := 0; i < b.N; i++ {
				a := mustAnalyze(b, core.Options{Solver: core.SolverOptions{Backend: backend.be}}, src)
				warnings = len(a.Report.Warnings)
			}
			b.ReportMetric(float64(warnings), "warnings")
		})
	}
}

// BenchmarkAblationContexts sweeps the context cap — the paper's
// Section 6.3 cost/precision axis.
func BenchmarkAblationContexts(b *testing.B) {
	src := ablationSource(b)
	for _, cap := range []uint64{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			var contexts uint64
			var warnings int
			for i := 0; i < b.N; i++ {
				a := mustAnalyze(b, core.Options{ContextCap: cap}, src)
				contexts = a.Report.Stats.Contexts
				warnings = len(a.Report.Warnings)
			}
			b.ReportMetric(float64(contexts), "contexts")
			b.ReportMetric(float64(warnings), "warnings")
		})
	}
}

// BenchmarkAblationContextPolicy compares full call-path numbering
// (Whaley–Lam) against k-CFA call strings — the "more appropriate
// context sensitivity for C programs" the paper says it is
// investigating (Sections 6.3 and 7).
func BenchmarkAblationContextPolicy(b *testing.B) {
	src := ablationSource(b)
	policies := []struct {
		name string
		opts core.Options
	}{
		{"callpath", core.Options{}},
		{"kcfa1", core.Options{KCFA: 1}},
		{"kcfa2", core.Options{KCFA: 2}},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var contexts uint64
			var warnings int
			for i := 0; i < b.N; i++ {
				a := mustAnalyze(b, pol.opts, src)
				contexts = a.Report.Stats.Contexts
				warnings = len(a.Report.Warnings)
			}
			b.ReportMetric(float64(contexts), "contexts")
			b.ReportMetric(float64(warnings), "warnings")
		})
	}
}

// BenchmarkAblationHeapCloning toggles heap cloning (Section 7's
// comparison with non-cloning analyses).
func BenchmarkAblationHeapCloning(b *testing.B) {
	src := ablationSource(b)
	for _, hc := range []bool{true, false} {
		name := "on"
		if !hc {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var r, h int
			for i := 0; i < b.N; i++ {
				a := mustAnalyze(b, core.Options{HeapCloning: core.Bool(hc)}, src)
				r, h = a.Report.Stats.R, a.Report.Stats.H
			}
			b.ReportMetric(float64(r), "R")
			b.ReportMetric(float64(h), "H")
		})
	}
}

// BenchmarkAblationPointerSolver compares the explicit worklist
// points-to solver against the all-relational Datalog/BDD solver (the
// way the paper's prototype ran inside bddbddb), context-insensitively
// so both solve the same problem.
func BenchmarkAblationPointerSolver(b *testing.B) {
	src := ablationSource(b)
	f, errs := cminor.Parse("bench.c", src)
	if len(errs) != 0 {
		b.Fatal(errs[0])
	}
	info := cminor.Check(f)
	if len(info.Errors) != 0 {
		b.Fatal(info.Errors[0])
	}
	prog := ir.Lower(info, f)
	g := callgraph.Build(prog, "main", nil)
	n := contexts.Number(g, 1)
	cfg := pointer.Config{
		AllocFns:    map[string]bool{"apr_palloc": true, "apr_pcalloc": true, "apr_pstrdup": true, "malloc": true},
		OutAllocFns: map[string]int{"apr_pool_create": 0},
	}
	b.Run("explicit", func(b *testing.B) {
		var heap int
		for i := 0; i < b.N; i++ {
			heap = pointer.Analyze(n, cfg).HeapSize()
		}
		b.ReportMetric(float64(heap), "heap-edges")
	})
	b.Run("bdd", func(b *testing.B) {
		var heap int
		for i := 0; i < b.N; i++ {
			heap = pointer.AnalyzeBDD(context.Background(), n, cfg).HeapSize()
		}
		b.ReportMetric(float64(heap), "heap-edges")
	})
}

// BenchmarkAblationRanking measures how much inspection work the
// Section 5.4 heuristic saves: warnings total vs high-ranked.
func BenchmarkAblationRanking(b *testing.B) {
	specs := workloads.SmallCorpus()
	var total, high int
	for i := 0; i < b.N; i++ {
		total, high = 0, 0
		for _, spec := range specs {
			pkg := workloads.Generate(spec, 2008)
			for _, exe := range pkg.Exes {
				a, err := core.AnalyzeSource(core.Options{},
					pkg.SourcesFor(exe))
				if err != nil {
					b.Fatal(err)
				}
				total += len(a.Report.Warnings)
				high += a.Report.Stats.High
			}
		}
	}
	b.ReportMetric(float64(total), "warnings")
	b.ReportMetric(float64(high), "high-ranked")
}

// BenchmarkRegionRuntime compares the runtime costs the paper's
// introduction motivates: arena allocation from pools versus RC-style
// reference-counted regions (the dynamic-safety overhead).
func BenchmarkRegionRuntime(b *testing.B) {
	b.Run("pool_alloc", func(b *testing.B) {
		root := regions.NewRoot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := root.NewChild()
			for j := 0; j < 64; j++ {
				_ = p.Alloc(48)
			}
			p.Destroy()
		}
	})
	b.Run("rc_refcounted", func(b *testing.B) {
		root := regions.NewRCRoot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := root.NewChild()
			for j := 0; j < 64; j++ {
				_ = p.Pool().Alloc(48)
				p.AddRef()
			}
			for j := 0; j < 64; j++ {
				p.DelRef()
			}
			p.Destroy()
		}
	})
}

// --- case study sources (shared with internal/core tests in spirit) ---

const figure9CaseStudy = `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, unsigned long size);
extern void apr_pool_destroy(apr_pool_t *p);
typedef struct apr_hash_t apr_hash_t;
typedef struct apr_hash_index_t apr_hash_index_t;
struct apr_hash_index_t { apr_hash_t *ht; };
struct apr_hash_t { apr_hash_index_t iterator; int count; };
apr_hash_index_t * apr_hash_first(apr_pool_t *pool, apr_hash_t *ht) {
    apr_hash_index_t *hi;
    if (pool) hi = apr_palloc(pool, sizeof(*hi));
    else hi = &ht->iterator;
    hi->ht = ht;
    return hi;
}
void svn_xml_make_open_tag_hash(apr_pool_t *pool, apr_hash_t *ht) {
    apr_hash_index_t *hi;
    for (hi = apr_hash_first(pool, ht); hi; hi = NULL) { }
}
int main(void) {
    apr_pool_t *pool; apr_pool_t *subpool;
    apr_hash_t *ht;
    apr_pool_create(&pool, NULL);
    apr_pool_create(&subpool, pool);
    ht = apr_palloc(subpool, sizeof(struct apr_hash_t));
    svn_xml_make_open_tag_hash(pool, ht);
    apr_pool_destroy(subpool);
    return 0;
}
`

const figure10CaseStudy = `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, unsigned long size);
extern void apr_pool_destroy(apr_pool_t *p);
typedef struct apr_hash_t apr_hash_t;
extern apr_hash_t *apr_hash_make(apr_pool_t *p);
struct lock_t { apr_hash_t *set; };
int main(int associated) {
    apr_pool_t *pool; apr_pool_t *subpool;
    struct lock_t *lock;
    apr_hash_t *stable;
    apr_pool_create(&pool, NULL);
    apr_pool_create(&subpool, pool);
    lock = apr_palloc(pool, sizeof(struct lock_t));
    stable = apr_hash_make(pool);
    if (associated) lock->set = apr_hash_make(subpool);
    if (associated) lock->set = stable;
    apr_pool_destroy(subpool);
    return 0;
}
`

const figure12Apache = `
typedef struct apr_pool_t apr_pool_t;
typedef long (*cleanup_t)(void *data);
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_pcalloc(apr_pool_t *p, unsigned long size);
extern void *apr_palloc(apr_pool_t *p, unsigned long size);
extern void apr_pool_cleanup_register(apr_pool_t *p, const void *data, cleanup_t plain, cleanup_t child);
extern void *XML_ParserCreate(void *enc);
struct apr_xml_parser { void *xp; };
typedef struct apr_xml_parser apr_xml_parser;
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
}
`

const figure12Subversion = `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_pcalloc(apr_pool_t *p, unsigned long size);
struct svn_xml_parser_t { void *xp; };
typedef struct svn_xml_parser_t svn_xml_parser_t;
svn_xml_parser_t * svn_xml_make_parser(apr_pool_t *pool) {
    svn_xml_parser_t *svn_parser;
    apr_pool_t *subpool;
    apr_pool_create(&subpool, pool);
    svn_parser = apr_pcalloc(subpool, sizeof(*svn_parser));
    return svn_parser;
}
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
}
`

// --- Pipeline: per-phase cost and the parallel corpus driver ---

// BenchmarkPhaseBreakdown analyzes one mid-size executable and
// reports each pipeline phase's wall time as a custom metric — the
// per-phase view of the Figure 11 "time" column that the monolithic
// analyzer could not produce.
func BenchmarkPhaseBreakdown(b *testing.B) {
	src := ablationSource(b)
	phaseNS := map[string]int64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mustAnalyze(b, core.Options{}, src)
		for _, ps := range a.Report.Stats.Phases {
			phaseNS[ps.Name] += int64(ps.Time)
		}
	}
	b.StopTimer()
	for _, name := range core.PhaseNames() {
		if ns, ok := phaseNS[name]; ok {
			b.ReportMetric(float64(ns)/float64(b.N)/1e6, name+"-ms")
		}
	}
}

// BenchmarkCorpusDriver runs the whole small corpus through
// pipeline.RunCorpus serially and with GOMAXPROCS workers; comparing
// the two sub-benchmarks measures the parallel driver's speedup on
// independent packages.
func BenchmarkCorpusDriver(b *testing.B) {
	var sets []map[string]string
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		for _, exe := range pkg.Exes {
			sets = append(sets, pkg.SourcesFor(exe))
		}
	}
	run := func(b *testing.B, jobs int) {
		for i := 0; i < b.N; i++ {
			results := pipeline.RunCorpus(context.Background(), sets, jobs,
				func(ctx context.Context, s map[string]string) (*core.Analysis, error) {
					return core.AnalyzeSourceContext(ctx, core.Options{}, s)
				})
			for _, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.ReportMetric(float64(len(sets)), "exes")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("jobs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		run(b, runtime.GOMAXPROCS(0))
	})
}
