package cminor

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// splitProgram parses a generated program split into n files.
func splitProgram(t *testing.T, n int) ([]string, []*File) {
	t.Helper()
	srcs := workloads.SplitSource(workloads.Generate(workloads.SmallCorpus()[0], 3).Exes[0].Source, n)
	files := make([]*File, len(srcs))
	for i, src := range srcs {
		files[i] = mustParseAs(t, "f"+strconv.Itoa(i)+".c", src)
	}
	return srcs, files
}

func mustParseAs(t *testing.T, path, src string) *File {
	t.Helper()
	f, errs := Parse(path, src)
	if len(errs) != 0 {
		t.Fatalf("parse %s: %v", path, errs[0])
	}
	return f
}

// describeUses renders file f's Uses table in info independently of
// object identity and of table numbering, so tables from separate
// checks compare equal when they resolve every identifier to the same
// object: a local or parameter through the FuncInfo of the function it
// is in, anything else through Objects.
func describeUses(info *Info, f *File) []string {
	out := make([]string, f.NumIdents)
	table := info.Uses[f]
	for _, d := range f.Decls {
		var fi *FuncInfo
		if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
			fi = &info.FuncInfo[f][fd.Index]
		}
		for _, id := range idents(d) {
			switch u := info.Object(table[id.ID], fi).(type) {
			case nil:
				out[id.ID] = "-"
			case *VarObject:
				out[id.ID] = fmt.Sprintf("var %s %s global=%t param=%t local=%t", u.Name, u.Type, u.Global, u.Param, !u.Global && !u.Param)
				if !u.Global {
					out[id.ID] += fmt.Sprintf(" index=%d", u.Index)
				}
			case *FuncObject:
				out[id.ID] = "func " + u.Name
			case *EnumConst:
				out[id.ID] = fmt.Sprintf("enum %s=%d", u.Name, u.Value)
			default:
				out[id.ID] = fmt.Sprintf("?%T", u)
			}
		}
	}
	return out
}

// idents collects every Ident reachable from v, each once.
func idents(v any) []*Ident {
	var out []*Ident
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if id, ok := v.Interface().(*Ident); ok {
				out = append(out, id)
				return
			}
			walk(v.Elem())
		case reflect.Interface:
			walk(v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return out
}

func TestIdentIDsDenseInSourceOrder(t *testing.T) {
	_, files := splitProgram(t, 4)
	for _, f := range files {
		ids := idents(f)
		if len(ids) != f.NumIdents || len(ids) == 0 {
			t.Fatalf("%s: %d identifiers reachable, NumIdents = %d", f.Path, len(ids), f.NumIdents)
		}
		sort.Slice(ids, func(i, j int) bool {
			a, b := ids[i].Pos, ids[j].Pos
			return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
		})
		for i, id := range ids {
			if int(id.ID) != i {
				t.Fatalf("%s: identifier %d in source order (%s at %s) has ID %d", f.Path, i, f.Name(id), id.Pos, id.ID)
			}
		}
	}
	info := Check(files...)
	for _, f := range files {
		if n := len(info.Uses[f]); n != f.NumIdents {
			t.Fatalf("%s: Uses table has %d entries, NumIdents = %d", f.Path, n, f.NumIdents)
		}
	}
}

// TestCheckLeavesASTsShared checks one set of parsed files twice at
// once, and re-checks a changed file against one base twice at once.
// Run under -race, it fails if checking writes to the AST.
func TestCheckLeavesASTsShared(t *testing.T) {
	srcs, files := splitProgram(t, 4)
	twice := func(check func() *Info) [2]*Info {
		var out [2]*Info
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = check()
			}()
		}
		wg.Wait()
		return out
	}
	same := func(what string, a, b []string) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Uses tables differ", what)
		}
		for i, d := range a {
			if d == "-" {
				t.Fatalf("%s: identifier %d is unresolved", what, i)
			}
		}
	}

	full := twice(func() *Info { return Check(files...) })
	for _, f := range files {
		same("concurrent Check of "+f.Path, describeUses(full[0], f), describeUses(full[1], f))
	}

	edited := append([]*File(nil), files...)
	edited[1] = mustParseAs(t, files[1].Path, srcs[1])
	changed := map[string]DeclEdit{files[1].Path: {}}
	base := full[0]
	inc := twice(func() *Info { return CheckIncremental(base, edited, changed) })
	for _, info := range inc {
		if len(info.Errors) != 0 {
			t.Fatalf("incremental check: %v", info.Errors[0])
		}
		if len(info.Uses) != 1 || len(info.Uses[edited[1]]) != edited[1].NumIdents {
			t.Fatalf("incremental check holds %d tables; want one of %d entries for the changed file", len(info.Uses), edited[1].NumIdents)
		}
	}
	same("concurrent CheckIncremental", describeUses(inc[0], edited[1]), describeUses(inc[1], edited[1]))
	same("CheckIncremental against Check", describeUses(inc[0], edited[1]), describeUses(base, files[1]))
}
