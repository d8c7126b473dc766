package ir

import (
	"os"
	"testing"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

// FuzzFrontEnd feeds raw bytes through parse, check and lower. Each
// stage runs only on its predecessor's clean output, and none may
// panic: a hostile request body reaches exactly this path. The lowered
// program must be wired (every instruction resolves in its function,
// every variable operand below NumVars) and equal to linking the
// file's fragment.
func FuzzFrontEnd(f *testing.F) {
	fig1, err := os.ReadFile("../../examples/figure1.c")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig1)
	f.Add([]byte(workloads.Generate(workloads.SmallCorpus()[0], 1).Exes[0].Source))
	f.Fuzz(func(t *testing.T, src []byte) {
		file, errs := cminor.Parse("fuzz.c", string(src))
		if len(errs) != 0 {
			return
		}
		info := cminor.Check(file)
		if len(info.Errors) != 0 {
			return
		}
		if n := len(info.Uses[file]); n != file.NumIdents {
			t.Fatalf("Uses table has %d entries for %d identifiers", n, file.NumIdents)
		}
		p := Lower(info, file)
		checkWired(t, p)
		if got, want := progDump(p), progDump(Link(info, lowerFiles(info, []*cminor.File{file}))); got != want {
			t.Fatalf("Lower differs from Link(LowerFile):\n%s\nwant:\n%s", got, want)
		}
	})
}
