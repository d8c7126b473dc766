package pointer

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/ir"
)

var testConfig = Config{
	AllocFns:    map[string]bool{"malloc": true, "rnew": true, "ralloc": true},
	OutAllocFns: map[string]int{"apr_pool_create": 0},
	ReturnArgFns: map[string]int{
		"memcpy": 0,
	},
	HeapCloning: true,
}

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	return analyzeCfg(t, src, testConfig)
}

func analyzeCfg(t *testing.T, src string, cfg Config) *Result {
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
	g := callgraph.Build(prog, "main", nil)
	n := contexts.Number(g, 1<<16)
	return Analyze(n, cfg)
}

// varOf finds a named variable in a function (params, locals, or
// globals for fn == "").
func varOf(r *Result, fn, name string) int32 {
	if fn == "" {
		if v, ok := r.Prog.Global(name); ok {
			return v
		}
		return -1
	}
	f := r.Prog.Funcs[fn]
	for v := f.VarFirst; v < f.VarEnd; v++ {
		if r.Prog.VarName(v) == name {
			return v
		}
	}
	return -1
}

func TestMallocPointsTo(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
int main(void) {
    int *p;
    p = malloc(4);
    return 0;
}`)
	p := varOf(r, "main", "p")
	locs := r.PointsTo(p, 0)
	if len(locs) != 1 {
		t.Fatalf("p points to %d objects, want 1", len(locs))
	}
	obj := r.Objects[locs[0].Obj]
	if obj.Kind != AllocObj || obj.Fn != "malloc" {
		t.Fatalf("object = %+v", obj)
	}
}

func TestFieldSensitivity(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
struct two { int *a; int *b; };
int main(void) {
    struct two *s;
    int *x;
    int *y;
    s = malloc(16);
    s->a = malloc(4);
    s->b = malloc(4);
    x = s->a;
    y = s->b;
    return 0;
}`)
	x := varOf(r, "main", "x")
	y := varOf(r, "main", "y")
	lx := r.PointsTo(x, 0)
	ly := r.PointsTo(y, 0)
	if len(lx) != 1 || len(ly) != 1 {
		t.Fatalf("x:%d y:%d objects, want 1 each (field-sensitive)", len(lx), len(ly))
	}
	if lx[0] == ly[0] {
		t.Fatal("x and y alias despite distinct fields")
	}
}

func TestOutParamAllocation(t *testing.T) {
	// The apr_pool_create shape: allocation returned through **arg.
	r := analyze(t, `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    return 0;
}`)
	pool := varOf(r, "main", "pool")
	locs := r.PointsTo(pool, 0)
	if len(locs) != 1 {
		t.Fatalf("pool points to %d objects, want 1", len(locs))
	}
	if obj := r.Objects[locs[0].Obj]; obj.Fn != "apr_pool_create" {
		t.Fatalf("pool object from %q", obj.Fn)
	}
}

func TestInterproceduralFlow(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
int * makeInt(void) { return malloc(4); }
int main(void) {
    int *p;
    p = makeInt();
    return 0;
}`)
	p := varOf(r, "main", "p")
	if locs := r.PointsTo(p, 0); len(locs) != 1 {
		t.Fatalf("return flow broken: %v", locs)
	}
}

func TestHeapCloningDistinguishesCallPaths(t *testing.T) {
	src := `
extern void *malloc(unsigned long n);
int * alloc_one(void) { return malloc(4); }
int main(void) {
    int *a;
    int *b;
    a = alloc_one();
    b = alloc_one();
    return 0;
}`
	// With heap cloning, the two call paths into alloc_one yield two
	// distinct abstract objects.
	r := analyze(t, src)
	a := varOf(r, "main", "a")
	b := varOf(r, "main", "b")
	la, lb := r.PointsTo(a, 0), r.PointsTo(b, 0)
	if len(la) != 1 || len(lb) != 1 {
		t.Fatalf("a:%v b:%v", la, lb)
	}
	if la[0] == lb[0] {
		t.Fatal("heap cloning failed: both call paths share one object")
	}
	// Without heap cloning they collapse (the ablation of Section 7).
	cfg := testConfig
	cfg.HeapCloning = false
	r2 := analyzeCfg(t, src, cfg)
	a2 := varOf(r2, "main", "a")
	b2 := varOf(r2, "main", "b")
	la2, lb2 := r2.PointsTo(a2, 0), r2.PointsTo(b2, 0)
	if len(la2) != 1 || len(lb2) != 1 || la2[0] != lb2[0] {
		t.Fatalf("non-cloning should merge: a=%v b=%v", la2, lb2)
	}
}

func TestContextSensitivityOfParams(t *testing.T) {
	// identity(p) called with two different objects: context
	// sensitivity must keep the results separate at the two call
	// sites.
	r := analyze(t, `
extern void *malloc(unsigned long n);
int * identity(int *p) { return p; }
int main(void) {
    int *x;
    int *y;
    int *rx;
    int *ry;
    x = malloc(4);
    y = malloc(4);
    rx = identity(x);
    ry = identity(y);
    return 0;
}`)
	rx := varOf(r, "main", "rx")
	ry := varOf(r, "main", "ry")
	lrx, lry := r.PointsTo(rx, 0), r.PointsTo(ry, 0)
	if len(lrx) != 1 || len(lry) != 1 {
		t.Fatalf("context sensitivity lost: rx=%v ry=%v", lrx, lry)
	}
	if lrx[0] == lry[0] {
		t.Fatal("rx and ry merged: analysis is context-insensitive")
	}
}

func TestAddressOfAndDeref(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
void set(int **pp) { *pp = malloc(4); }
int main(void) {
    int *p;
    set(&p);
    return 0;
}`)
	p := varOf(r, "main", "p")
	if locs := r.PointsTo(p, 0); len(locs) != 1 {
		t.Fatalf("out-param via & lost: %v", locs)
	}
}

func TestStringObjects(t *testing.T) {
	r := analyze(t, `
int main(void) {
    char *s;
    s = "hello";
    return 0;
}`)
	s := varOf(r, "main", "s")
	locs := r.PointsTo(s, 0)
	if len(locs) != 1 || r.Objects[locs[0].Obj].Kind != StringObj {
		t.Fatalf("string literal points-to: %v", locs)
	}
}

func TestHeapThroughGlobals(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
int *g;
void setup(void) { g = malloc(4); }
int main(void) {
    int *p;
    setup();
    p = g;
    return 0;
}`)
	p := varOf(r, "main", "p")
	if locs := r.PointsTo(p, 0); len(locs) != 1 {
		t.Fatalf("global flow lost: %v", locs)
	}
}

func TestReturnArgModel(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
extern void *memcpy(void *dst, const void *src, unsigned long n);
int main(void) {
    int *a;
    int *b;
    a = malloc(8);
    b = memcpy(a, NULL, 8);
    return 0;
}`)
	a := varOf(r, "main", "a")
	b := varOf(r, "main", "b")
	la, lb := r.PointsTo(a, 0), r.PointsTo(b, 0)
	if len(la) != 1 || len(lb) != 1 || la[0] != lb[0] {
		t.Fatalf("memcpy identity model broken: a=%v b=%v", la, lb)
	}
}

func TestLinkedStructureLoop(t *testing.T) {
	// A loop building a list: fixpoint must terminate and the next
	// field must reach the node object(s).
	r := analyze(t, `
extern void *malloc(unsigned long n);
struct node { struct node *next; int v; };
int main(void) {
    struct node *head;
    struct node *n;
    int i;
    head = NULL;
    for (i = 0; i < 10; i++) {
        n = malloc(16);
        n->next = head;
        head = n;
    }
    while (head) head = head->next;
    return 0;
}`)
	head := varOf(r, "main", "head")
	locs := r.PointsTo(head, 0)
	if len(locs) == 0 {
		t.Fatal("head points nowhere")
	}
	// head->next must include the same object (cyclic approximation).
	found := false
	for _, l := range locs {
		for _, tgt := range r.HeapAt(l.Obj, 0) {
			if tgt.Obj == l.Obj {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("list next edge missing")
	}
}

func TestAllocObjAt(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
int main(void) {
    int *p;
    p = malloc(4);
    return 0;
}`)
	var call ir.Inst
	for _, in := range r.Prog.Funcs["main"].Instrs() {
		if in.Op == ir.Call {
			call = in
		}
	}
	id := r.AllocObjAt(0, call.ID)
	if id < 0 {
		t.Fatal("AllocObjAt found nothing")
	}
	if int(r.Objects[id].Site) != call.ID {
		t.Fatal("AllocObjAt site mismatch")
	}
}

func TestFieldAddrPointsIntoObject(t *testing.T) {
	r := analyze(t, `
extern void *malloc(unsigned long n);
struct s { long a; long b; };
int main(void) {
    struct s *p;
    long *q;
    p = malloc(16);
    q = &p->b;
    return 0;
}`)
	q := varOf(r, "main", "q")
	locs := r.PointsTo(q, 0)
	if len(locs) != 1 || locs[0].Off != 8 {
		t.Fatalf("&p->b = %v, want offset 8", locs)
	}
}
