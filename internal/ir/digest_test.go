package ir

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

// corpusDigestFile holds the SHA-256 of the seed-1 paper corpus's IR
// as corpusIR writes it.
const corpusDigestFile = "testdata/corpus_ir.sha256"

// TestCorpusIRDigest: every program of the seed-1 paper corpus lowers
// to the same IR as when the digest was recorded: each function's
// Dump, every variable's name and flags, and the string literal
// table. Set REGIONWIZ_UPDATE_DIGEST=1 to rewrite the digest after an
// intended change to the IR.
func TestCorpusIRDigest(t *testing.T) {
	h := sha256.New()
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, 1)
		for _, exe := range pkg.Exes {
			corpusIR(t, h, exe.Name, pkg.SourcesFor(exe))
		}
	}
	got := fmt.Sprintf("%x\n", h.Sum(nil))
	if os.Getenv("REGIONWIZ_UPDATE_DIGEST") != "" {
		if err := os.WriteFile(corpusDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("corpus IR digest is %s, want %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// corpusIR lowers one program, its files in path order, and writes
// its IR to w.
func corpusIR(t *testing.T, w io.Writer, name string, sources map[string]string) {
	t.Helper()
	paths := make([]string, 0, len(sources))
	for path := range sources {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	files := make([]*cminor.File, len(paths))
	for i, path := range paths {
		f, errs := cminor.Parse(path, sources[path])
		if len(errs) != 0 {
			t.Fatalf("parse %s: %v", path, errs[0])
		}
		files[i] = f
	}
	info := cminor.Check(files...)
	if len(info.Errors) != 0 {
		t.Fatalf("check %s: %v", name, info.Errors[0])
	}
	p := Lower(info, files...)
	fmt.Fprintf(w, "program %s\n", name)
	for id := int32(0); int(id) < p.NumVars(); id++ {
		v := p.Var(id)
		fmt.Fprintf(w, "var %d %s %t %t %t %t %t\n", id, p.VarName(id), v.Global, v.Param, v.Temp, v.AddrTaken, v.PointerLike)
	}
	for i := 0; i < p.NumStrings(); i++ {
		s := p.StringLit(i)
		fmt.Fprintf(w, "str %d %q %s\n", i, s.Value, s.Pos)
	}
	for _, fn := range p.FuncNames() {
		io.WriteString(w, p.Funcs[fn].Dump())
	}
}
