package ir

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	f, errs := cminor.Parse("test.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	info := cminor.Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("check errors: %v", info.Errors)
	}
	return Lower(info, f)
}

func ops(fn *Func) []Op {
	out := make([]Op, fn.NumInstrs())
	for i, in := range fn.Instrs() {
		out[i] = in.Op
	}
	return out
}

func TestLowerAssignAndReturn(t *testing.T) {
	p := lower(t, `int id(int x) { return x; }`)
	fn := p.Funcs["id"]
	if fn == nil {
		t.Fatal("id not lowered")
	}
	got := ops(fn)
	want := []Op{Assign, Ret}
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	if fn.Instrs()[0].Dst().Var != fn.RetVal {
		t.Fatal("return does not assign RetVal")
	}
}

func TestLowerFieldStoreMirrorsPaperFigure1(t *testing.T) {
	// The store req->connection = conn from Figure 1 must become a
	// STORE with the field's byte offset.
	p := lower(t, `
struct conn_t { int fd; };
struct req_t { int id; struct conn_t *connection; };
void g(struct req_t *req, struct conn_t *conn) {
    req->connection = conn;
}`)
	fn := p.Funcs["g"]
	var store *Inst
	for _, in := range fn.Instrs() {
		if in.Op == Store {
			store = &in
		}
	}
	if store == nil {
		t.Fatal("no STORE emitted")
	}
	if store.Off() != 8 {
		t.Fatalf("STORE offset = %d, want 8 (connection after padded int id)", store.Off())
	}
	if store.Base().Kind != VarOpd || p.VarName(store.Base().Var) != "req" {
		t.Fatalf("STORE base = %v", store.Base())
	}
	if store.Src().Kind != VarOpd || p.VarName(store.Src().Var) != "conn" {
		t.Fatalf("STORE src = %v", store.Src())
	}
}

func TestLowerFieldLoadChain(t *testing.T) {
	p := lower(t, `
struct a { struct a *next; int v; };
int g(struct a *p) { return p->next->v; }`)
	fn := p.Funcs["g"]
	var loads []Inst
	for _, in := range fn.Instrs() {
		if in.Op == Load {
			loads = append(loads, in)
		}
	}
	if len(loads) != 2 {
		t.Fatalf("%d loads, want 2", len(loads))
	}
	if loads[0].Off() != 0 || loads[1].Off() != 8 {
		t.Fatalf("load offsets = %d,%d want 0,8", loads[0].Off(), loads[1].Off())
	}
	// Second load's base must be the first load's destination.
	if loads[1].Base().Var != loads[0].Dst().Var {
		t.Fatal("load chain not threaded through temp")
	}
}

func TestLowerAddressOf(t *testing.T) {
	p := lower(t, `
extern int take(int **pp);
int g(void) {
    int *x;
    take(&x);
    return 0;
}`)
	fn := p.Funcs["g"]
	var addr *Inst
	for _, in := range fn.Instrs() {
		if in.Op == Addr {
			addr = &in
		}
	}
	if addr == nil {
		t.Fatal("no ADDR emitted for &x")
	}
	if p.VarName(addr.Src().Var) != "x" || !p.Var(addr.Src().Var).AddrTaken {
		t.Fatalf("ADDR of %v, AddrTaken=%v", addr.Src(), p.Var(addr.Src().Var).AddrTaken)
	}
}

func TestLowerCallDirectAndIndirect(t *testing.T) {
	p := lower(t, `
int f(int x) { return x; }
int g(void) {
    int (*fp)(int);
    fp = f;
    return fp(3) + f(4);
}`)
	fn := p.Funcs["g"]
	var direct, indirect *Inst
	for _, in := range fn.Instrs() {
		if in.Op != Call {
			continue
		}
		switch in.Callee().Kind {
		case FuncOpd:
			direct = &in
		case VarOpd:
			indirect = &in
		}
	}
	if direct == nil || direct.Callee().Fn != "f" {
		t.Fatalf("direct call: %v", direct)
	}
	if indirect == nil || p.VarName(indirect.Callee().Var) != "fp" {
		t.Fatalf("indirect call: %v", indirect)
	}
	// fp = f must assign a function operand.
	found := false
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Src().Kind == FuncOpd && in.Src().Fn == "f" {
			found = true
		}
	}
	if !found {
		t.Fatal("function pointer assignment not lowered")
	}
}

func TestLowerDerefStore(t *testing.T) {
	// apr_pool_create-style out-parameter write: *newp = value.
	p := lower(t, `
void g(int **newp, int *v) { *newp = v; }`)
	fn := p.Funcs["g"]
	var store *Inst
	for _, in := range fn.Instrs() {
		if in.Op == Store {
			store = &in
		}
	}
	if store == nil || store.Off() != 0 {
		t.Fatalf("deref store: %v", store)
	}
	if p.VarName(store.Base().Var) != "newp" || p.VarName(store.Src().Var) != "v" {
		t.Fatalf("store operands: %v %v", store.Base(), store.Src())
	}
}

func TestLowerStringLiteral(t *testing.T) {
	p := lower(t, `
char * g(void) { return "hello"; }
char * h(void) { return "hello"; }`)
	if p.NumStrings() != 2 {
		t.Fatalf("%d string sites, want 2 (per-site objects, not interned)", p.NumStrings())
	}
	if p.StringLit(0).Value != "hello" {
		t.Fatalf("string value %q", p.StringLit(0).Value)
	}
}

func TestLowerGlobalInit(t *testing.T) {
	p := lower(t, `
int x = 42;
int *gp = &x;
int g(void) { return *gp; }`)
	initFn := p.Funcs[InitFuncName]
	if initFn == nil {
		t.Fatal("no global init function")
	}
	hasAddr := false
	for _, in := range initFn.Instrs() {
		if in.Op == Addr && p.VarName(in.Src().Var) == "x" {
			hasAddr = true
		}
	}
	if !hasAddr {
		t.Fatal("global initializer &x not lowered")
	}
}

func TestLowerTernaryMergesBothArms(t *testing.T) {
	p := lower(t, `
int *g(int c, int *a, int *b) { return c ? a : b; }`)
	fn := p.Funcs["g"]
	// Both a and b must flow into one temp.
	dst := int32(-1)
	srcs := map[string]bool{}
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Src().Kind == VarOpd &&
			(p.VarName(in.Src().Var) == "a" || p.VarName(in.Src().Var) == "b") {
			if dst < 0 {
				dst = in.Dst().Var
			} else if in.Dst().Var != dst {
				t.Fatal("ternary arms assigned to different temps")
			}
			srcs[p.VarName(in.Src().Var)] = true
		}
	}
	if !srcs["a"] || !srcs["b"] {
		t.Fatalf("ternary arms lowered: %v", srcs)
	}
}

func TestLowerArrayDecayAndIndex(t *testing.T) {
	p := lower(t, `
int g(void) {
    int a[8];
    int *p;
    p = a;
    a[3] = 7;
    return p[2];
}`)
	fn := p.Funcs["g"]
	text := fn.Dump()
	if !strings.Contains(text, "ADDR a") {
		t.Fatalf("array decay missing ADDR:\n%s", text)
	}
	var store *Inst
	for _, in := range fn.Instrs() {
		if in.Op == Store {
			store = &in
		}
	}
	if store == nil || store.Off() != 0 {
		t.Fatalf("array store = %v (index-insensitive offset 0 expected)", store)
	}
}

func TestLowerDotFieldOnLocalStruct(t *testing.T) {
	p := lower(t, `
struct pair { int a; int b; };
int g(void) {
    struct pair p;
    p.b = 3;
    return p.b;
}`)
	fn := p.Funcs["g"]
	var store *Inst
	for _, in := range fn.Instrs() {
		if in.Op == Store {
			store = &in
		}
	}
	if store == nil || store.Off() != 4 {
		t.Fatalf("p.b store = %v, want offset 4", store)
	}
}

func TestInstrAndVarIDsAreDense(t *testing.T) {
	p := lower(t, `
int f(int x) { return x + 1; }
int main(void) { return f(2); }`)
	// Instruction IDs 0..NumInstrs-1 resolve to themselves, and the
	// functions' ranges tile them in order.
	for i := 0; i < p.NumInstrs(); i++ {
		if in := p.Instr(i); in.ID != i {
			t.Fatalf("instr %d has ID %d", i, in.ID)
		}
	}
	// Variable IDs: the globals, then the functions' variable ranges,
	// back to back; every operand names one of them.
	next := p.NumGlobals()
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		if fn.VarFirst != next || fn.VarEnd < fn.VarFirst {
			t.Fatalf("%s owns variables [%d, %d), want to start at %d", name, fn.VarFirst, fn.VarEnd, next)
		}
		next = fn.VarEnd
		for _, in := range fn.Instrs() {
			for _, o := range []Opd{in.Dst(), in.Src(), in.Base(), in.Callee()} {
				if o.Kind == VarOpd && (o.Var < 0 || int(o.Var) >= p.NumVars()) {
					t.Fatalf("%s: instruction %d names variable %d of %d", name, in.ID, o.Var, p.NumVars())
				}
			}
		}
	}
	if int(next) != p.NumVars() {
		t.Fatalf("functions own variables up to %d of %d", next, p.NumVars())
	}
}

func TestLowerPointerArithmeticKeepsObject(t *testing.T) {
	p := lower(t, `
char * g(char *s) { return s + 4; }`)
	fn := p.Funcs["g"]
	// RetVal must be assigned (directly or via temp) from s, not a
	// fresh unrelated temp.
	assignedFromS := false
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Dst().Var == fn.RetVal && in.Src().Kind == VarOpd && p.VarName(in.Src().Var) == "s" {
			assignedFromS = true
		}
	}
	if !assignedFromS {
		t.Fatalf("pointer arithmetic lost the object:\n%s", fn.Dump())
	}
}

func TestLowerShadowedLocalsGetOwnVariables(t *testing.T) {
	p := lower(t, `
int f(void) {
    int x = 1;
    {
        int x = 2;
        {
            int x = 3;
        }
    }
    return x;
}`)
	fn := p.Funcs["f"]
	byConst := make(map[int64]int32)
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Src().Kind == ConstOpd {
			if p.VarName(in.Dst().Var) != "x" || p.Var(in.Dst().Var).Temp {
				t.Fatalf("initializer %d assigns %s, want a local x:\n%s", in.Src().C, p.VarName(in.Dst().Var), fn.Dump())
			}
			byConst[in.Src().C] = in.Dst().Var
		}
	}
	if len(byConst) != 3 {
		t.Fatalf("found initializers %v, want 1, 2 and 3:\n%s", byConst, fn.Dump())
	}
	if byConst[1] == byConst[2] || byConst[1] == byConst[3] || byConst[2] == byConst[3] {
		t.Fatalf("shadowed locals share a variable:\n%s", fn.Dump())
	}
	// The return reads the outermost x.
	if ret := fn.Instrs()[fn.NumInstrs()-2]; ret.Dst().Var != fn.RetVal || ret.Src().Var != byConst[1] {
		t.Fatalf("return assigns %s, want the outer x:\n%s", &ret, fn.Dump())
	}
}

// TestLowerFileFootprint: lowering the seed-1 paper corpus allocates
// no more than the fragments' final tables, plus one instruction chunk
// a file (the last chunk, which trimming copies), plus 1/32 for the
// builder's maps and stacks. Instruction chunks count at the bytes
// they hold, so a chunk the allocator rounds up to a larger size class
// exceeds it, as does a table sized from an estimate and then regrown
// or copied.
func TestLowerFileFootprint(t *testing.T) {
	type unit struct {
		info *cminor.Info
		f    *cminor.File
	}
	var units []unit
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, 1)
		for _, exe := range pkg.Exes {
			for path, src := range pkg.SourcesFor(exe) {
				f, errs := cminor.Parse(path, src)
				if len(errs) != 0 {
					t.Fatalf("parse %s: %v", path, errs[0])
				}
				units = append(units, unit{cminor.Check(f), f})
			}
		}
	}
	// A collection flushes the per-P allocation caches, which hold
	// back the count of the small objects they serve.
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocs := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	frags := make([]*Fragment, len(units))
	start := allocs()
	for i, u := range units {
		frags[i] = LowerFile(u.info, u.f)
	}
	lowered := allocs() - start
	// The other tables' size, as the allocator rounds it, is what
	// copying them allocates.
	copies := make([]*Fragment, len(frags))
	start = allocs()
	for i, fr := range frags {
		copies[i] = copyTables(fr)
	}
	final := allocs() - start
	size := uint64(unsafe.Sizeof(instr{}))
	for _, fr := range frags {
		for _, chunk := range fr.instrs {
			final += uint64(cap(chunk)) * size
		}
	}
	if limit := final + final/32 + uint64(len(frags))*chunkLen*size; lowered > limit {
		t.Fatalf("lowering %d files allocates %d bytes for %d bytes of tables, want at most %d", len(frags), lowered, final, limit)
	}
	t.Logf("lowering %d files allocates %d bytes for %d bytes of tables", len(frags), lowered, final)
}

// copyTables copies every table a fragment holds but the instruction
// chunks, at its capacity.
func copyTables(fr *Fragment) *Fragment {
	c := *fr
	c.instrs = make(instrTable, len(fr.instrs), cap(fr.instrs))
	c.vars, c.varNames, c.args, c.consts = clone(fr.vars), clone(fr.varNames), clone(fr.args), clone(fr.consts)
	c.names, c.funcs, c.globals, c.strings = clone(fr.names), clone(fr.funcs), clone(fr.globals), clone(fr.strings)
	return &c
}

func clone[T any](s []T) []T { return append(make([]T, 0, cap(s)), s...) }
