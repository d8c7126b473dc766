package cminor

import (
	"fmt"
	"strings"
	"testing"
)

func TestEnumDeclAndConstants(t *testing.T) {
	_, info := mustCheck(t, `
enum color { RED, GREEN = 5, BLUE };
enum { ANON_A = -2, ANON_B };
int g(void) { return RED + GREEN + BLUE + ANON_A + ANON_B; }`)
	want := map[string]int64{"RED": 0, "GREEN": 5, "BLUE": 6, "ANON_A": -2, "ANON_B": -1}
	for name, v := range want {
		ec := info.Enums[name]
		if ec == nil {
			t.Fatalf("enum constant %s missing", name)
		}
		if ec.Value != v {
			t.Fatalf("%s = %d, want %d", name, ec.Value, v)
		}
	}
}

func TestEnumTypedef(t *testing.T) {
	_, info := mustCheck(t, `
typedef enum { OK, FAIL = 100 } status_t;
status_t g(status_t s) { return s == OK ? OK : FAIL; }`)
	if info.Enums["FAIL"] == nil || info.Enums["FAIL"].Value != 100 {
		t.Fatal("typedef'd enum constants missing")
	}
	// The typedef resolves to int.
	if info.Typedefs["status_t"] != TypeInt {
		t.Fatalf("status_t = %v, want int", info.Typedefs["status_t"])
	}
}

func TestEnumAsType(t *testing.T) {
	mustCheck(t, `
enum mode { READ, WRITE };
int g(enum mode m) {
    enum mode local;
    local = m;
    return local == WRITE;
}`)
}

func TestEnumConstExprValues(t *testing.T) {
	_, info := mustCheck(t, `
enum bits { A = 1, B = A * 2, C = A | B, D = ~0, E = !5 };
int g(void) { return A; }`)
	want := map[string]int64{"A": 1, "B": 2, "C": 3, "D": -1, "E": 0}
	for name, v := range want {
		if ec := info.Enums[name]; ec == nil || ec.Value != v {
			t.Fatalf("%s: %+v, want %d", name, info.Enums[name], v)
		}
	}
}

func TestEnumDuplicateDiagnosed(t *testing.T) {
	f := mustParse(t, `
enum a { X };
enum b { X };`)
	info := Check(f)
	if len(info.Errors) == 0 {
		t.Fatal("duplicate enumerator not diagnosed")
	}
}

func TestSwitchParsing(t *testing.T) {
	f := mustParse(t, `
int g(int x) {
    switch (x) {
    case 0:
    case 1:
        return 10;
    case 2:
        x = x + 1;
        break;
    default:
        return -1;
    }
    return x;
}`)
	fd := f.Decls[0].(*FuncDecl)
	sw := fd.Body.Stmts[0].(*Switch)
	if len(sw.Cases) != 3 {
		t.Fatalf("%d case groups, want 3", len(sw.Cases))
	}
	if len(sw.Cases[0].Values) != 2 {
		t.Fatalf("first group has %d labels, want 2 (case 0: case 1:)", len(sw.Cases[0].Values))
	}
	if !sw.Cases[2].Default {
		t.Fatal("default group not marked")
	}
}

// TestNestedListsKeepApart: a switch nested in a case body, with
// enough groups to grow the parser's case stack, and an enum defined
// inside an enumerator's value each keep their own lists.
func TestNestedListsKeepApart(t *testing.T) {
	var cases strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&cases, "        case %d: x = %d; break;\n", i, i)
	}
	f := mustParse(t, `
enum { A = sizeof(enum { B, C }), D };
int g(int x) {
    switch (x) {
    case 0:
        return 1;
    case 1:
        switch (x) {
`+cases.String()+`        }
        x = 2;
        break;
    default:
        return -1;
    }
    return x;
}`)
	items := func(ed *EnumDecl) string {
		var names []string
		for _, it := range ed.Items {
			names = append(names, it.Name)
		}
		return strings.Join(names, " ")
	}
	outer := f.Decls[0].(*EnumDecl)
	inner := outer.Items[0].Value.(*SizeofType).Type.(*enumDefTE).def
	if items(outer) != "A D" || items(inner) != "B C" {
		t.Errorf("enum items %q and %q, want A D and B C", items(outer), items(inner))
	}
	sw := f.Decls[len(f.Decls)-1].(*FuncDecl).Body.Stmts[0].(*Switch)
	if len(sw.Cases) != 3 || !sw.Cases[2].Default || len(sw.Cases[1].Body) != 3 {
		t.Fatalf("outer switch: %d groups, want 3 with a 3-statement second body: %+v", len(sw.Cases), sw.Cases)
	}
	nested := sw.Cases[1].Body[0].(*Switch)
	if len(nested.Cases) != 20 {
		t.Fatalf("nested switch has %d groups, want 20", len(nested.Cases))
	}
	for i, c := range nested.Cases {
		if len(c.Values) != 1 || c.Values[0].(*IntLit).V != int64(i) || len(c.Body) != 2 {
			t.Fatalf("nested group %d: %+v", i, c)
		}
	}
}

func TestSwitchNonConstantLabelDiagnosed(t *testing.T) {
	f := mustParse(t, `
int g(int x, int y) {
    switch (x) {
    case 1:
        return 1;
    }
    switch (x) { case 2: return 2; }
    switch (x) { default: return 0; }
    return 0;
}`)
	info := Check(f)
	if len(info.Errors) != 0 {
		t.Fatalf("constant labels diagnosed: %v", info.Errors)
	}
	f2 := mustParse(t, `
int g(int x, int y) {
    switch (x) { case y: return 1; }
    return 0;
}`)
	info2 := Check(f2)
	if len(info2.Errors) == 0 {
		t.Fatal("non-constant case label not diagnosed")
	}
}

func TestSwitchOnEnum(t *testing.T) {
	mustCheck(t, `
enum op { ADD, SUB, MUL };
int apply(enum op o, int a, int b) {
    switch (o) {
    case ADD: return a + b;
    case SUB: return a - b;
    case MUL: return a * b;
    }
    return 0;
}`)
}

func TestSizeofValuesRecorded(t *testing.T) {
	f, info := mustCheck(t, `
struct wide { long a; long b; char c; };
long g(void) {
    struct wide w;
    return sizeof(struct wide) + sizeof(int) + sizeof w;
}`)
	_ = f
	var sizes []int64
	for _, v := range info.Sizeofs {
		sizes = append(sizes, v)
	}
	if len(sizes) != 3 {
		t.Fatalf("%d sizeof values recorded, want 3", len(sizes))
	}
	found := map[int64]int{}
	for _, s := range sizes {
		found[s]++
	}
	if found[24] != 2 || found[4] != 1 {
		t.Fatalf("sizeof values = %v, want {24:2, 4:1}", found)
	}
}
