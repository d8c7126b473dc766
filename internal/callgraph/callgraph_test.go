package callgraph

import (
	"reflect"
	"testing"

	"repro/internal/cminor"
	"repro/internal/ir"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	f, errs := cminor.Parse("test.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	info := cminor.Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("check: %v", info.Errors)
	}
	prog := ir.Lower(info, f)
	return Build(prog, "main", nil)
}

// calleesOf collects all resolved callees of every call in fn.
func calleesOf(g *Graph, fn string) []string {
	set := map[string]bool{}
	for _, in := range g.Prog.Funcs[fn].Instrs() {
		if in.Op != ir.Call {
			continue
		}
		for _, c := range g.Edges[in.ID] {
			set[c] = true
		}
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	sortStrings(out)
	return out
}

func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func TestDirectCalls(t *testing.T) {
	g := build(t, `
int helper(int x) { return x; }
int main(void) { return helper(1); }`)
	if got := calleesOf(g, "main"); !reflect.DeepEqual(got, []string{"helper"}) {
		t.Fatalf("main calls %v", got)
	}
	if !g.Reachable["helper"] || !g.Reachable["main"] {
		t.Fatalf("reachable = %v", g.ReachableFuncs())
	}
}

func TestIndirectCallViaVariable(t *testing.T) {
	g := build(t, `
int a(int x) { return x; }
int b(int x) { return x + 1; }
int main(int argc) {
    int (*fp)(int);
    if (argc) fp = a; else fp = b;
    return fp(0);
}`)
	got := calleesOf(g, "main")
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("indirect call resolves to %v, want [a b]", got)
	}
}

func TestIndirectCallViaParameterAndReturn(t *testing.T) {
	g := build(t, `
typedef int (*fnptr)(int);
int work(int x) { return x; }
int invoke(int (*fn)(int)) { return fn(7); }
fnptr pick(void) { return work; }
int main(void) {
    int r;
    r = invoke(work);
    return r + pick()(1);
}`)
	if got := calleesOf(g, "invoke"); !reflect.DeepEqual(got, []string{"work"}) {
		t.Fatalf("invoke calls %v, want [work] (parameter wiring)", got)
	}
	// pick() returns work; main calls the result.
	mainCallees := calleesOf(g, "main")
	found := false
	for _, c := range mainCallees {
		if c == "work" {
			found = true
		}
	}
	if !found {
		t.Fatalf("return-value wiring missed: main calls %v", mainCallees)
	}
}

func TestFunctionPointerThroughStructField(t *testing.T) {
	// The paper's Section 5.1 example: mytime = localtime;
	// week = mytime(&t)->tm_wday. Here via a dispatch table field.
	g := build(t, `
struct ops { int (*run)(int); };
int impl(int x) { return x; }
int main(void) {
    struct ops o;
    struct ops *p;
    p = &o;
    p->run = impl;
    return p->run(3);
}`)
	got := calleesOf(g, "main")
	found := false
	for _, c := range got {
		if c == "impl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("field-stored function pointer missed: main calls %v", got)
	}
}

func TestImplicitThreadCreate(t *testing.T) {
	g := build(t, `
extern int pthread_create(void *t, void *attr, void *(*entry)(void *), void *arg);
void * worker(void *p) { return p; }
int main(void) {
    pthread_create(NULL, NULL, worker, NULL);
    return 0;
}`)
	if !g.Reachable["worker"] {
		t.Fatalf("implicit thread entry not reachable: %v", g.ReachableFuncs())
	}
}

func TestImplicitCleanupRegister(t *testing.T) {
	g := build(t, `
typedef struct apr_pool_t apr_pool_t;
extern void apr_pool_cleanup_register(apr_pool_t *p, const void *data,
    long (*plain)(void *), long (*child)(void *));
long my_cleanup(void *d) { return 0; }
int main(void) {
    apr_pool_cleanup_register(NULL, NULL, my_cleanup, my_cleanup);
    return 0;
}`)
	if !g.Reachable["my_cleanup"] {
		t.Fatalf("cleanup callback not reachable: %v", g.ReachableFuncs())
	}
}

func TestReachabilityPruning(t *testing.T) {
	g := build(t, `
int used(void) { return 1; }
int dead(void) { return 2; }
int deadCaller(void) { return dead(); }
int main(void) { return used(); }`)
	if g.Reachable["dead"] || g.Reachable["deadCaller"] {
		t.Fatalf("dead code not pruned: %v", g.ReachableFuncs())
	}
	if !g.Reachable["used"] {
		t.Fatal("used function pruned")
	}
}

func TestGlobalInitReachable(t *testing.T) {
	g := build(t, `
int setup(void) { return 1; }
int x = 0;
int (*hook)(void) = setup;
int main(void) { return hook(); }`)
	if !g.Reachable[ir.InitFuncName] {
		t.Fatal("__global_init not reachable")
	}
	if !g.Reachable["setup"] {
		t.Fatalf("function stored by global initializer not reachable: %v", g.ReachableFuncs())
	}
}

func TestExternCallsRecorded(t *testing.T) {
	g := build(t, `
extern void *malloc(unsigned long n);
int main(void) { malloc(8); return 0; }`)
	found := false
	for _, externs := range g.ExternCalls {
		for _, fn := range externs {
			if fn == "malloc" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("extern call to malloc not recorded")
	}
}

func TestRecursion(t *testing.T) {
	g := build(t, `
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int main(void) { return even(10); }`)
	if !g.Reachable["even"] || !g.Reachable["odd"] {
		t.Fatalf("mutual recursion broken: %v", g.ReachableFuncs())
	}
	if got := calleesOf(g, "odd"); !reflect.DeepEqual(got, []string{"even"}) {
		t.Fatalf("odd calls %v", got)
	}
}

func TestCallSites(t *testing.T) {
	g := build(t, `
int f(void) { return 0; }
extern int ext(void);
int main(void) { f(); ext(); return f(); }`)
	sites := g.CallSites("main")
	if len(sites) != 2 {
		t.Fatalf("%d resolved call sites in main, want 2", len(sites))
	}
}
