package ir

import (
	"strings"
	"testing"
)

// testName names variable 0 "x" and variable 1 "y".
func testName(v int32) string { return [...]string{"x", "y"}[v] }

func TestOperandString(t *testing.T) {
	cases := map[string]Opd{
		"_":     {},
		"x":     {Kind: VarOpd, Var: 0},
		"42":    {Kind: ConstOpd, C: 42},
		"&f":    {Kind: FuncOpd, Fn: "f"},
		"str#3": {Kind: StringOpd, C: 3},
		"null":  {Kind: NullOpd},
	}
	for want, o := range cases {
		if got := o.format(testName); got != want {
			t.Errorf("Operand %+v = %q, want %q", o, got, want)
		}
	}
}

func TestInstrString(t *testing.T) {
	// A fragment whose local variables 0 and 1 link to program
	// variables 0 and 1, calling g with argument y.
	x := Operand{Kind: VarOpd, V: 0}
	y := Operand{Kind: VarOpd, V: 1}
	g := Operand{Kind: FuncOpd, V: 0}
	lf := &linked{frag: &Fragment{args: []Operand{y}, names: []string{"g"}, consts: []int64{3000000000}}}
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Assign, Dst: x, Src: y}, "x = ASSIGN y"},
		{Instr{Op: Load, Dst: x, Base: y, Off: 8}, "x = LOAD [y+8]"},
		{Instr{Op: Store, Base: x, Off: 4, Src: y}, "STORE [x+4] = y"},
		{Instr{Op: Addr, Dst: x, Src: y}, "x = ADDR y"},
		{Instr{Op: FieldAddr, Dst: x, Base: y, Off: 16}, "x = ADD y, 16"},
		{Instr{Op: Store | wideOff, Base: x, Src: y}, "STORE [x+3000000000] = y"},
		{Instr{Op: Call, Dst: x, Base: g, NumArgs: 1}, "x = CALL &g(y)"},
		{Instr{Op: Call, Base: g}, "CALL &g()"},
		{Instr{Op: Ret, Src: x}, "RET x"},
		{Instr{Op: Ret}, "RET"},
	}
	for _, tc := range cases {
		lf.frag.instrs = nil
		lf.frag.instrs.add(tc.in)
		if got := lf.inst(0, 0).format(testName); got != tc.want {
			t.Errorf("Instr = %q, want %q", got, tc.want)
		}
	}
}

// TestInstrAccessors: Base answers only for a non-call and Callee only
// for a call, though a call keeps its callee in Instr.Base; Off is 0
// for a call, whose Instr.Off indexes its arguments, and reads the
// constant table when wideOff is set.
func TestInstrAccessors(t *testing.T) {
	x := Operand{Kind: VarOpd, V: 0}
	y := Operand{Kind: VarOpd, V: 1}
	g := Operand{Kind: FuncOpd, V: 0}
	lf := &linked{frag: &Fragment{args: []Operand{x, y}, names: []string{"g"}, consts: []int64{-1 << 40}}}
	cases := []struct {
		in           Instr
		base, callee OperandKind
		off          int64
		args         int
	}{
		{Instr{Op: Assign, Dst: x, Src: y}, None, None, 0, 0},
		{Instr{Op: Load, Dst: x, Base: y, Off: 8}, VarOpd, None, 8, 0},
		{Instr{Op: Load | wideOff, Dst: x, Base: y}, VarOpd, None, -1 << 40, 0},
		{Instr{Op: Store, Base: x, Off: -4, Src: y}, VarOpd, None, -4, 0},
		{Instr{Op: Addr, Dst: x, Src: y}, None, None, 0, 0},
		{Instr{Op: FieldAddr, Dst: x, Base: y, Off: 16}, VarOpd, None, 16, 0},
		{Instr{Op: Call, Dst: x, Base: g, Off: 1, NumArgs: 1}, None, FuncOpd, 0, 1},
		{Instr{Op: Call, Base: y}, None, VarOpd, 0, 0},
		{Instr{Op: Ret, Src: x}, None, None, 0, 0},
	}
	for _, tc := range cases {
		lf.frag.instrs = nil
		lf.frag.instrs.add(tc.in)
		in := lf.inst(0, 0)
		if in.Op != tc.in.Op&^wideOff || in.Base().Kind != tc.base || in.Callee().Kind != tc.callee ||
			in.Off() != tc.off || in.NumArgs() != tc.args {
			t.Errorf("%s: Op %s, Base %v, Callee %v, Off %d, NumArgs %d; want %s, %v, %v, %d, %d", in.format(testName),
				in.Op, in.Base().Kind, in.Callee().Kind, in.Off(), in.NumArgs(), tc.in.Op&^wideOff, tc.base, tc.callee, tc.off, tc.args)
		}
		if in.NumArgs() == 1 && in.Arg(0).Var != 1 {
			t.Errorf("%s: argument 0 is %v, want y", in.format(testName), in.Arg(0))
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		Assign: "ASSIGN", Load: "LOAD", Store: "STORE", Addr: "ADDR",
		FieldAddr: "ADD", Call: "CALL", Ret: "RET",
	} {
		if op.String() != want {
			t.Errorf("Op %d = %q, want %q", op, op.String(), want)
		}
	}
}

func TestDumpFormat(t *testing.T) {
	p := lower(t, `int add(int a, int b) { return a + b; }`)
	out := p.Funcs["add"].Dump()
	if !strings.HasPrefix(out, "func add(a, b):") {
		t.Fatalf("dump header: %q", out)
	}
	if !strings.Contains(out, "RET") {
		t.Fatalf("dump body missing RET:\n%s", out)
	}
}

func TestFuncNamesSorted(t *testing.T) {
	p := lower(t, `
int zeta(void) { return 0; }
int alpha(void) { return zeta(); }
int main(void) { return alpha(); }`)
	names := p.FuncNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted: %v", names)
		}
	}
}

func TestLowerCompoundAssignPointer(t *testing.T) {
	p := lower(t, `
char * g(char *s) {
    s += 3;
    return s;
}`)
	fn := p.Funcs["g"]
	// The compound assignment must keep s's abstract object flowing
	// into the returned value.
	found := false
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Src().Kind == VarOpd && p.VarName(in.Src().Var) == "s" {
			found = true
		}
	}
	if !found {
		t.Fatalf("compound pointer assign lost flow:\n%s", fn.Dump())
	}
}

func TestLowerLogicalOperatorsEvaluateBothSides(t *testing.T) {
	// Flow-insensitive lowering evaluates both operands (no branch
	// pruning); ensure calls inside && appear.
	p := lower(t, `
extern int check(int x);
int g(int a) { return a && check(a); }`)
	fn := p.Funcs["g"]
	calls := 0
	for _, in := range fn.Instrs() {
		if in.Op == Call {
			calls++
		}
	}
	if calls != 1 {
		t.Fatalf("%d calls lowered, want 1", calls)
	}
}

func TestLowerWhileAndDoWhile(t *testing.T) {
	p := lower(t, `
extern void tick(void);
int g(int n) {
    while (n > 0) { tick(); n--; }
    do { tick(); } while (n < 3);
    return n;
}`)
	fn := p.Funcs["g"]
	calls := 0
	for _, in := range fn.Instrs() {
		if in.Op == Call {
			calls++
		}
	}
	if calls != 2 {
		t.Fatalf("%d calls lowered from loops, want 2", calls)
	}
}

func TestLowerCastChainPreservesValue(t *testing.T) {
	p := lower(t, `
extern void *malloc(unsigned long n);
long g(void) {
    void *p;
    long x;
    p = malloc(8);
    x = (long)(char *)p;
    return x;
}`)
	fn := p.Funcs["g"]
	// x must be assigned (directly) from p.
	ok := false
	for _, in := range fn.Instrs() {
		if in.Op == Assign && in.Dst().Kind == VarOpd && p.VarName(in.Dst().Var) == "x" &&
			in.Src().Kind == VarOpd && p.VarName(in.Src().Var) == "p" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("cast chain broke flow:\n%s", fn.Dump())
	}
}

func TestExternsRecorded(t *testing.T) {
	p := lower(t, `
extern int close(int fd);
int main(void) { return close(1); }`)
	if _, ok := p.Externs["close"]; !ok {
		t.Fatal("extern close not recorded")
	}
}

func TestAddressOfFieldOfPointer(t *testing.T) {
	p := lower(t, `
struct s { long a; long b; };
long * g(struct s *p) { return &p->b; }`)
	fn := p.Funcs["g"]
	var fa *Inst
	for _, in := range fn.Instrs() {
		if in.Op == FieldAddr {
			fa = &in
		}
	}
	if fa == nil || fa.Off() != 8 {
		t.Fatalf("&p->b: %v", fa)
	}
}

// TestWideOffset: a field offset that does not fit in Instr.Off still
// reaches every accessor and the dump.
func TestWideOffset(t *testing.T) {
	p := lower(t, `
struct big { char pad[3000000000]; int *p; };
int *g(struct big *b, int *q) {
    b->p = q;
    return b->p;
}
int **h(struct big *b) { return &b->p; }`)
	want := map[Op]string{
		Store:     "STORE [b+3000000000] = q",
		Load:      "LOAD [b+3000000000]",
		FieldAddr: "ADD b, 3000000000",
	}
	for _, name := range []string{"g", "h"} {
		for _, in := range p.Funcs[name].Instrs() {
			if w, ok := want[in.Op]; ok {
				if in.Off() != 3000000000 || !strings.Contains(in.String(), w) {
					t.Errorf("%s: %s with offset %d, want %q", name, in, in.Off(), w)
				}
				delete(want, in.Op)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("not lowered: %v", want)
	}
}

func TestAddressOfFirstFieldIsBase(t *testing.T) {
	// &p->a at offset 0 needs no ADD: the base pointer suffices.
	p := lower(t, `
struct s { long a; long b; };
long * g(struct s *p) { return &p->a; }`)
	fn := p.Funcs["g"]
	for _, in := range fn.Instrs() {
		if in.Op == FieldAddr {
			t.Fatalf("offset-0 field address emitted ADD:\n%s", fn.Dump())
		}
	}
}
