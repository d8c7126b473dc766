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

// describeUses renders a Uses table independently of object identity,
// so tables from separate checks compare equal when they resolve every
// identifier the same way.
func describeUses(table []any) []string {
	out := make([]string, len(table))
	for i, u := range table {
		switch u := u.(type) {
		case nil:
			out[i] = "-"
		case *VarObject:
			out[i] = fmt.Sprintf("var %s %s global=%t param=%t index=%d", u.Name, u.Type, u.Global, u.Param, u.Index)
		case *FuncObject:
			out[i] = "func " + u.Name
		case *EnumConst:
			out[i] = fmt.Sprintf("enum %s=%d", u.Name, u.Value)
		default:
			out[i] = fmt.Sprintf("?%T", u)
		}
	}
	return out
}

// idents collects every Ident reachable from f, each once.
func idents(f *File) []*Ident {
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
	walk(reflect.ValueOf(f))
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
			if id.ID != i {
				t.Fatalf("%s: identifier %d in source order (%s at %s) has ID %d", f.Path, i, id.Name, id.Pos, id.ID)
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
	same := func(what string, a, b []any) {
		t.Helper()
		if da, db := describeUses(a), describeUses(b); !reflect.DeepEqual(da, db) {
			t.Fatalf("%s: Uses tables differ", what)
		}
	}

	full := twice(func() *Info { return Check(files...) })
	for _, f := range files {
		same("concurrent Check of "+f.Path, full[0].Uses[f], full[1].Uses[f])
	}

	edited := append([]*File(nil), files...)
	edited[1] = mustParseAs(t, files[1].Path, srcs[1])
	changed := map[string]bool{files[1].Path: true}
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
	same("concurrent CheckIncremental", inc[0].Uses[edited[1]], inc[1].Uses[edited[1]])
	same("CheckIncremental against Check", inc[0].Uses[edited[1]], base.Uses[files[1]])
}
