package interp

import (
	"testing"

	"repro/internal/core"
)

func TestDanglingUseDetected(t *testing.T) {
	eff := exec(t, rcPrelude+`
struct obj { int v; };
int main(void) {
    region_t *r;
    struct obj *o;
    int x;
    r = rnew(NULL);
    o = ralloc(r);
    o->v = 1;
    deleteregion(r);
    x = o->v;       /* use after delete */
    return x;
}`)
	if len(eff.Dangling) != 1 {
		t.Fatalf("%d dangling uses, want 1", len(eff.Dangling))
	}
	if !eff.Dangling[0].Pos.IsValid() {
		t.Fatal("dangling use has no source position")
	}
	if eff.Dangling[0].Obj.Owner == nil || eff.Dangling[0].Obj.Owner.Alive {
		t.Fatal("dangling use should reference a deleted owner region")
	}
}

func TestNoDanglingUseWhenConsistent(t *testing.T) {
	eff := exec(t, rcPrelude+`
struct obj { int v; };
int main(void) {
    region_t *r; region_t *sub;
    struct obj *conn; struct obj *req;
    r = rnew(NULL);
    sub = rnew(r);
    conn = ralloc(r);
    req = ralloc(sub);
    req->v = conn->v;
    deleteregion(sub);
    conn->v = 2;       /* conn's region still alive */
    deleteregion(r);
    return 0;
}`)
	if len(eff.Dangling) != 0 {
		t.Fatalf("consistent program recorded %d dangling uses", len(eff.Dangling))
	}
}

// TestSchedulingSensitiveBug reproduces the paper's Section 1 point:
// in multi-threaded programs the deletion order of regions varies with
// scheduling, so a dynamic test may never see the crash, while the
// static analysis reports the inconsistency regardless.
func TestSchedulingSensitiveBug(t *testing.T) {
	// "schedule" stands for the nondeterministic interleaving: it
	// decides which of two sibling regions is deleted first.
	src := rcPrelude + `
struct obj { struct obj *peer; int v; };
int main(int schedule) {
    region_t *ra; region_t *rb;
    struct obj *a; struct obj *b;
    int x;
    ra = rnew(NULL);
    rb = rnew(NULL);
    a = ralloc(ra);
    b = ralloc(rb);
    a->peer = b;                   /* cross-region pointer */
    if (schedule) {
        deleteregion(rb);          /* pointee dies first... */
        x = a->peer->v;            /* ...crash on this schedule */
        deleteregion(ra);
    } else {
        x = a->peer->v;            /* fine on this schedule */
        deleteregion(ra);
        deleteregion(rb);
    }
    return x;
}`
	a, err := core.AnalyzeSource(core.Options{}, map[string]string{"sched.c": src})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic testing under the lucky schedule sees nothing...
	eff, err := Run(a.Info, Options{Args: []int64{0}}, a.Files...)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Dangling) != 0 {
		t.Fatalf("lucky schedule should not crash, got %d dangling uses", len(eff.Dangling))
	}
	// ...the unlucky schedule crashes...
	eff, err = Run(a.Info, Options{Args: []int64{1}}, a.Files...)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Dangling) == 0 {
		t.Fatal("unlucky schedule should observe the dangling use")
	}
	// ...and the static analysis reports the inconsistency without
	// running anything.
	if len(a.Report.Warnings) == 0 {
		t.Fatal("static analysis missed the scheduling-sensitive bug")
	}
}
