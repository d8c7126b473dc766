package ir

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cminor"
)

// linkSources is a two-file program exercising everything linking
// rewrites: globals declared in both files, string literals in global
// initializers and in bodies, calls with arguments across files, and
// globals whose address is taken in an initializer and in a body.
var linkSources = []struct{ path, src string }{
	{"a.c", `
char *greeting = "hello";
int counter;
int *cp = &counter;
extern int sum(int a, int b);
int bump(int *p, char *tag) {
    *p = *p + 1;
    return sum(*p, 2);
}
int main(void) {
    char *s;
    s = "main";
    bump(&counter, s);
    return bump(cp, "again");
}`},
	{"b.c", `
extern int counter;
int limit;
char *farewell = "bye";
int sum(int a, int b) {
    char *t;
    t = "sum";
    return a + b + limit;
}
void reset(void) {
    int *q;
    q = &limit;
    counter = 0;
}`},
}

func checkLinkSources(t *testing.T) (*cminor.Info, []*cminor.File) {
	t.Helper()
	files := make([]*cminor.File, len(linkSources))
	for i, s := range linkSources {
		f, errs := cminor.Parse(s.path, s.src)
		if len(errs) != 0 {
			t.Fatalf("parse %s: %v", s.path, errs)
		}
		files[i] = f
	}
	info := cminor.Check(files...)
	if len(info.Errors) != 0 {
		t.Fatalf("check errors: %v", info.Errors)
	}
	return info, files
}

func lowerFiles(info *cminor.Info, files []*cminor.File) []*Fragment {
	frags := make([]*Fragment, len(files))
	for i, f := range files {
		frags[i] = LowerFile(info, f)
	}
	return frags
}

// opdString renders an operand with its variable's ID, so two dumps
// agree only if every operand names the same program variable.
func opdString(p *Program, o Opd) string {
	switch o.Kind {
	case VarOpd:
		return fmt.Sprintf("v%d:%s", o.Var, p.VarName(o.Var))
	case None:
		return "_"
	}
	return fmt.Sprintf("%d:%d:%s", o.Kind, o.C, o.Fn)
}

// varFunc names the function owning a variable, or <nil> for a global.
func varFunc(p *Program, v int32) string {
	for _, name := range p.FuncNames() {
		if fn := p.Funcs[name]; fn.VarFirst <= v && v < fn.VarEnd {
			return name
		}
	}
	return "<nil>"
}

// progDump renders everything linking decides: variable IDs and flags,
// string indices, and every instruction's ID, function and operands.
func progDump(p *Program) string {
	var sb strings.Builder
	for id := int32(0); int(id) < p.NumVars(); id++ {
		v := p.Var(id)
		fmt.Fprintf(&sb, "var %d %s g=%t p=%t t=%t fn=%s addr=%t ptr=%t\n",
			id, p.VarName(id), v.Global, v.Param, v.Temp, varFunc(p, id), v.AddrTaken, v.PointerLike)
	}
	for i := 0; i < p.NumStrings(); i++ {
		s := p.StringLit(i)
		fmt.Fprintf(&sb, "str %d %q %s\n", i, s.Value, s.Pos)
	}
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		fmt.Fprintf(&sb, "func %s ret=%t", name, fn.Ret)
		for i := 0; i < fn.NumParams; i++ {
			sb.WriteString(" " + opdString(p, Opd{Kind: VarOpd, Var: fn.Param(i)}))
		}
		if fn.RetVal >= 0 {
			sb.WriteString(" -> " + opdString(p, Opd{Kind: VarOpd, Var: fn.RetVal}))
		}
		sb.WriteByte('\n')
		for _, in := range fn.Instrs() {
			fmt.Fprintf(&sb, "  %d %s fn=%s %s %s %s+%d %s(", in.ID, in.Op, in.Func().Name,
				opdString(p, in.Dst()), opdString(p, in.Src()), opdString(p, in.Base()), in.Off(), opdString(p, in.Callee()))
			for k := 0; k < in.NumArgs(); k++ {
				sb.WriteString(opdString(p, in.Arg(k)) + ",")
			}
			fmt.Fprintf(&sb, ") %s\n", in.Pos())
		}
	}
	return sb.String()
}

// fragState renders a fragment's every field, including where each
// table lives, so any write to a fragment — or a table swapped for a
// copy — changes it.
func fragState(fr *Fragment) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v\n", *fr)
	fmt.Fprintf(&sb, "%p %p %p %p %p %p %p %p %p %p\n", fr.instrs, fr.vars, fr.varNames, fr.args,
		fr.consts, fr.names, fr.funcs, fr.globals, fr.strings, fr)
	for _, chunk := range fr.instrs {
		fmt.Fprintf(&sb, "%p ", chunk)
	}
	return sb.String()
}

// checkWired verifies that a linked program is consistent: every
// instruction sits in its function and resolves at its ID, every
// variable operand names one of the program's variables, every string
// operand indexes the literal lowered at its position, and every
// local variable belongs to one of the program's functions.
func checkWired(t *testing.T, p *Program) {
	t.Helper()
	for id := p.NumGlobals(); int(id) < p.NumVars(); id++ {
		if varFunc(p, id) == "<nil>" {
			t.Fatalf("variable %d (%s) belongs to no function of the program", id, p.VarName(id))
		}
	}
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		for _, in := range fn.Instrs() {
			if in.Func() != fn || p.Instr(in.ID).Func() != fn {
				t.Fatalf("%s: instruction %d is not wired into the program", name, in.ID)
			}
			opds := []Opd{in.Dst(), in.Src(), in.Base(), in.Callee()}
			for k := 0; k < in.NumArgs(); k++ {
				opds = append(opds, in.Arg(k))
			}
			for _, o := range opds {
				if o.Kind == VarOpd && (o.Var < 0 || int(o.Var) >= p.NumVars()) {
					t.Fatalf("%s: instruction %d names a variable outside the program", name, in.ID)
				}
				if o.Kind == StringOpd && p.StringLit(int(o.C)).Pos != in.Pos() {
					t.Fatalf("%s: instruction %d at %s names string %d from %s", name, in.ID, in.Pos(), o.C, p.StringLit(int(o.C)).Pos)
				}
			}
		}
	}
}

func TestLinkLeavesFragmentsUnchanged(t *testing.T) {
	info, files := checkLinkSources(t)
	frags := lowerFiles(info, files)
	before := make([]string, len(frags))
	for i, fr := range frags {
		before[i] = fragState(fr)
	}
	p := Link(info, frags)
	Link(info, frags)
	progDump(p)
	for i, fr := range frags {
		if fragState(fr) != before[i] {
			t.Errorf("Link modified fragment %s", fr.Path)
		}
	}
	checkWired(t, p)
}

func TestLinkIsRepeatable(t *testing.T) {
	info, files := checkLinkSources(t)
	frags := lowerFiles(info, files)
	want := progDump(Link(info, frags))
	if got := progDump(Link(info, frags)); got != want {
		t.Fatalf("second Link differs:\n%s\nwant:\n%s", got, want)
	}
	// Two concurrent links of the same fragments (run with -race).
	var wg sync.WaitGroup
	progs := make([]*Program, 2)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i] = Link(info, frags)
		}(i)
	}
	wg.Wait()
	for i, p := range progs {
		if got := progDump(p); got != want {
			t.Errorf("concurrent Link %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestLowerMatchesLink(t *testing.T) {
	info, files := checkLinkSources(t)
	linked := Link(info, lowerFiles(info, files))
	lowered := Lower(info, files...)
	checkWired(t, lowered)
	got, want := progDump(lowered), progDump(linked)
	if got != want {
		t.Fatalf("Lower differs from Link(LowerFile...):\n%s\nwant:\n%s", got, want)
	}
	// The fixture must exercise what linking rewrites.
	for _, s := range []string{`str 0 "hello"`, `str 1 "bye"`, `str 4 "sum"`, "counter g=true p=false t=false fn=<nil> addr=true", "limit g=true p=false t=false fn=<nil> addr=true"} {
		if !strings.Contains(want, s) {
			t.Errorf("linked program lacks %q:\n%s", s, want)
		}
	}
}

// TestOperandAndInstrSizes pins the stored IR's layout: a stored
// instruction is 32 bytes, so a chunk of them is exactly 32 KiB, and
// it, Operand and Var hold no pointers, so the collector never scans
// the tables holding them.
func TestOperandAndInstrSizes(t *testing.T) {
	if got := unsafe.Sizeof(instr{}); got != 32 {
		t.Errorf("a stored instruction is %d bytes, want 32", got)
	}
	if got := chunkLen * unsafe.Sizeof(instr{}); got != 32<<10 {
		t.Errorf("an instruction chunk is %d bytes, want 32 KiB", got)
	}
	for _, v := range []any{instr{}, Operand{}, Var{}} {
		if path := pointerField(reflect.TypeOf(v)); path != "" {
			t.Errorf("%T holds a pointer-carrying field %s", v, path)
		}
	}
}

// pointerField returns the path to the first field of t (searched
// depth first) whose type carries a pointer: a pointer, slice, string,
// map, channel, function or interface. It returns "" if there is none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return t.Kind().String()
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
	}
	return ""
}

// TestCursorMatchesInstr: a cursor yields exactly what Instr resolves,
// in ID order, across fragments whose initializer or body segments are
// empty and across instruction chunks, and every instruction is wired
// into its function.
func TestCursorMatchesInstr(t *testing.T) {
	var files []*cminor.File
	for _, s := range []struct{ path, src string }{
		{"a.c", "int x = 1;\nint f(void) { return x; }"},
		{"b.c", "int g(void) { return 2; }"},
		{"c.c", "extern int x;\nint *p = &x;"},
		{"d.c", ""},
		{"e.c", "int *q = &x;\nint main(void) { return f() + g(); }"},
		// Two functions of more than a chunk each, so one starts in one
		// chunk and ends in the next.
		{"f.c", "int *r = &x;\n" + longFunc("h1", chunkLen) + longFunc("h2", chunkLen)},
	} {
		f, errs := cminor.Parse(s.path, s.src)
		if len(errs) != 0 {
			t.Fatalf("parse %s: %v", s.path, errs)
		}
		files = append(files, f)
	}
	info := cminor.Check(files...)
	if len(info.Errors) != 0 {
		t.Fatalf("check: %v", info.Errors)
	}
	p := Lower(info, files...)
	walk := func(first, end int) {
		c := p.Cursor(first, end)
		id := first
		for c.Next() {
			if want := p.Instr(id); c.Inst.ID != id || c.Inst.String() != want.String() || c.Inst.Pos() != want.Pos() {
				t.Fatalf("cursor over [%d, %d) gave %d %s at %s, want %d %s at %s",
					first, end, c.Inst.ID, c.Inst, c.Inst.Pos(), id, want, want.Pos())
			}
			id++
		}
		if id != end {
			t.Fatalf("cursor over [%d, %d) stopped at %d", first, end, id)
		}
	}
	walk(0, p.NumInstrs())
	for _, name := range p.FuncNames() {
		walk(p.Funcs[name].First, p.Funcs[name].End)
	}
	checkWired(t, p)
	if p.Funcs[InitFuncName].NumInstrs() == 0 || p.NumInstrs() <= p.Funcs[InitFuncName].End {
		t.Fatal("fixture lacks initializers or bodies")
	}
	for _, fn := range p.Fragment(5).funcs {
		if fn.First>>chunkBits == (fn.End-1)>>chunkBits {
			t.Fatalf("%s holds instructions [%d, %d) of its fragment, within one chunk", fn.Name, fn.First, fn.End)
		}
	}
}

// longFunc returns a function of more than n instructions.
func longFunc(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "int %s(int a) {\n    int b;\n", name)
	for i := 0; i < n; i++ {
		sb.WriteString("    b = a;\n")
	}
	sb.WriteString("    return b;\n}\n")
	return sb.String()
}
