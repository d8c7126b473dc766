package pointer

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/ir"
)

// objKey canonicalizes an abstract object independent of interning
// order and solver.
func objKey(o Obj) string {
	site := -1
	if o.Kind == AllocObj {
		site = int(o.Site)
	}
	vname := ""
	if o.Kind == VarStorageObj || o.Kind == ParamObj {
		vname = fmt.Sprintf("%d", o.Var)
	}
	return fmt.Sprintf("k%d:site%d:v%s:s%d:%s", o.Kind, site, vname, o.Str, o.Fn)
}

// canonical points-to set of one variable as sorted strings.
func canonExplicit(r *Result, v int32) []string {
	var out []string
	for _, l := range r.PointsTo(v, 0) {
		out = append(out, fmt.Sprintf("%s+%d", objKey(r.Objects[l.Obj]), l.Off))
	}
	sort.Strings(out)
	return out
}

func canonBDD(br *BDDResult, v int32) []string {
	var out []string
	for _, l := range br.PointsTo(v) {
		out = append(out, fmt.Sprintf("%s+%d", objKey(br.Objects[l.Obj]), l.Off))
	}
	sort.Strings(out)
	return out
}

// crossCheck runs both solvers context-insensitively and compares the
// points-to sets of every named (non-temp) variable.
func crossCheck(t *testing.T, src string) {
	t.Helper()
	f, errs := cminor.Parse("x.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	info := cminor.Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("check: %v", info.Errors)
	}
	prog := ir.Lower(info, f)
	g := callgraph.Build(prog, "main", nil)
	n := contexts.Number(g, 1) // context-insensitive
	cfg := testConfig
	cfg.HeapCloning = false
	exp := Analyze(n, cfg)
	bddr := AnalyzeBDD(context.Background(), n, cfg)
	// The globals, then every reachable function's variables.
	vars := make([]int32, 0, prog.NumVars())
	for v := int32(0); v < prog.NumGlobals(); v++ {
		vars = append(vars, v)
	}
	for name, fn := range prog.Funcs {
		if g.Reachable[name] {
			for v := fn.VarFirst; v < fn.VarEnd; v++ {
				vars = append(vars, v)
			}
		}
	}
	for _, v := range vars {
		name := prog.VarName(v)
		if prog.Var(v).Temp || name == "__ret" {
			continue
		}
		a := canonExplicit(exp, v)
		b := canonBDD(bddr, v)
		if len(a) != len(b) {
			t.Errorf("%s: explicit %v vs bdd %v", name, a, b)
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: explicit %v vs bdd %v", name, i, a, b)
				break
			}
		}
	}
}

func TestBDDSolverBasicAlloc(t *testing.T) {
	crossCheck(t, `
extern void *malloc(unsigned long n);
int main(void) {
    int *p;
    int *q;
    p = malloc(4);
    q = p;
    return 0;
}`)
}

func TestBDDSolverFields(t *testing.T) {
	crossCheck(t, `
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
}

func TestBDDSolverFieldAddr(t *testing.T) {
	crossCheck(t, `
extern void *malloc(unsigned long n);
struct s { long a; long b; };
int main(void) {
    struct s *p;
    long *q;
    long v;
    p = malloc(16);
    q = &p->b;
    v = *q;
    return 0;
}`)
}

func TestBDDSolverOutParamAndAddrTaken(t *testing.T) {
	crossCheck(t, `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, unsigned long n);
int main(void) {
    apr_pool_t *pool;
    apr_pool_t *sub;
    void *d;
    apr_pool_create(&pool, NULL);
    apr_pool_create(&sub, pool);
    d = apr_palloc(sub, 8);
    return 0;
}`)
}

func TestBDDSolverInterprocedural(t *testing.T) {
	crossCheck(t, `
extern void *malloc(unsigned long n);
int * make(void) { return malloc(4); }
int * pass(int *x) { return x; }
int main(void) {
    int *a;
    int *b;
    a = make();
    b = pass(a);
    return 0;
}`)
}

func TestBDDSolverLinkedList(t *testing.T) {
	crossCheck(t, `
extern void *malloc(unsigned long n);
struct node { struct node *next; int v; };
int main(void) {
    struct node *head;
    struct node *n;
    int i;
    head = NULL;
    for (i = 0; i < 4; i++) {
        n = malloc(16);
        n->next = head;
        head = n;
    }
    while (head) head = head->next;
    return 0;
}`)
}

func TestBDDSolverGlobals(t *testing.T) {
	crossCheck(t, `
extern void *malloc(unsigned long n);
int *g;
void set(void) { g = malloc(4); }
int main(void) {
    int *p;
    set();
    p = g;
    return 0;
}`)
}

func TestBDDSolverStrings(t *testing.T) {
	crossCheck(t, `
int main(void) {
    char *a;
    char *b;
    a = "x";
    b = a;
    return 0;
}`)
}

func TestBDDSolverHeapSizeAgrees(t *testing.T) {
	src := `
extern void *malloc(unsigned long n);
struct pair { int *a; int *b; };
int main(void) {
    struct pair *p;
    p = malloc(16);
    p->a = malloc(4);
    p->b = malloc(4);
    return 0;
}`
	f, _ := cminor.Parse("x.c", src)
	info := cminor.Check(f)
	prog := ir.Lower(info, f)
	g := callgraph.Build(prog, "main", nil)
	n := contexts.Number(g, 1)
	cfg := testConfig
	cfg.HeapCloning = false
	exp := Analyze(n, cfg)
	bddr := AnalyzeBDD(context.Background(), n, cfg)
	if exp.HeapSize() != bddr.HeapSize() {
		t.Fatalf("heap sizes differ: explicit %d vs bdd %d", exp.HeapSize(), bddr.HeapSize())
	}
}
