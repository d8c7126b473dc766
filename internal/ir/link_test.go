package ir

import (
	"fmt"
	"sort"
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
func opdString(o Operand) string {
	switch o.Kind {
	case VarOpd:
		return fmt.Sprintf("v%d:%s", o.Var.ID, o.Var.Name)
	case None:
		return "_"
	}
	return fmt.Sprintf("%d:%d:%s", o.Kind, o.C, o.Fn)
}

func funcName(fn *Func) string {
	if fn == nil {
		return "<nil>"
	}
	return fn.Name
}

// progDump renders everything linking decides: variable IDs and flags,
// string indices, and every instruction's ID, function and operands.
func progDump(p *Program) string {
	var sb strings.Builder
	for _, v := range p.Vars {
		fmt.Fprintf(&sb, "var %d %s g=%t p=%t t=%t fn=%s addr=%t ptr=%t\n",
			v.ID, v.Name, v.Global, v.Param, v.Temp, funcName(v.Func), v.AddrTaken, v.PointerLike)
	}
	for i, s := range p.Strings {
		fmt.Fprintf(&sb, "str %d %q %s\n", i, s.Value, s.Pos)
	}
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		fmt.Fprintf(&sb, "func %s ret=%t", name, fn.Ret)
		for _, v := range fn.Params {
			sb.WriteString(" " + opdString(varOpd(v)))
		}
		if fn.RetVal != nil {
			sb.WriteString(" -> " + opdString(varOpd(fn.RetVal)))
		}
		sb.WriteByte('\n')
		for _, in := range fn.Instrs {
			fmt.Fprintf(&sb, "  %d %s fn=%s %s %s %s+%d %s(", in.ID, in.Op, funcName(in.Func),
				opdString(in.Dst), opdString(in.Src), opdString(in.Base), in.Off, opdString(in.Callee))
			for _, a := range in.Args {
				sb.WriteString(opdString(a) + ",")
			}
			fmt.Fprintf(&sb, ") %s\n", in.Pos)
		}
	}
	return sb.String()
}

// fragState renders a fragment including object identities, so any
// write to a fragment's Vars, Instrs or Funcs changes it.
func fragState(fr *Fragment) string {
	var sb strings.Builder
	vars := append(append([]*Var(nil), fr.InitVars...), fr.BodyVars...)
	names := make([]string, 0, len(fr.Globals))
	for name := range fr.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vars = append(vars, fr.Globals[name])
	}
	for _, v := range vars {
		fmt.Fprintf(&sb, "%p %+v\n", v, *v)
	}
	instrs := append([]*Instr(nil), fr.Init...)
	for _, fn := range fr.Funcs {
		fmt.Fprintf(&sb, "%p %+v\n", fn, *fn)
		instrs = append(instrs, fn.Instrs...)
	}
	for _, in := range instrs {
		fmt.Fprintf(&sb, "%p %+v\n", in, *in)
	}
	fmt.Fprintf(&sb, "%+v %d\n", fr.Strings, fr.InitStrings)
	return sb.String()
}

// checkWired verifies that a linked program refers only to its own
// objects: every instruction sits in its function and in Program.Instrs
// at its ID, every variable operand is the program's variable, every
// string operand indexes the literal lowered at its position, and
// every local variable belongs to one of the program's functions.
func checkWired(t *testing.T, p *Program) {
	t.Helper()
	for _, v := range p.Vars {
		if v.Func != nil && p.Funcs[v.Func.Name] != v.Func {
			t.Fatalf("variable %d (%s) belongs to a function outside the program", v.ID, v.Name)
		}
	}
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		for _, in := range fn.Instrs {
			if in.Func != fn || p.Instrs[in.ID] != in {
				t.Fatalf("%s: instruction %d is not wired into the program", name, in.ID)
			}
			opds := append([]Operand{in.Dst, in.Src, in.Base, in.Callee}, in.Args...)
			for _, o := range opds {
				if o.Kind == VarOpd && p.Vars[o.Var.ID] != o.Var {
					t.Fatalf("%s: instruction %d names a variable outside the program", name, in.ID)
				}
				if o.Kind == StringOpd && p.Strings[o.C].Pos != in.Pos {
					t.Fatalf("%s: instruction %d at %s names string %d from %s", name, in.ID, in.Pos, o.C, p.Strings[o.C].Pos)
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

func TestOperandAndInstrSizes(t *testing.T) {
	if got := unsafe.Sizeof(Operand{}); got != 40 {
		t.Errorf("Operand is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Instr{}); got > 256 {
		t.Errorf("Instr is %d bytes, want at most 256", got)
	}
}
