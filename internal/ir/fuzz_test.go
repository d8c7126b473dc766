package ir

import (
	"os"
	"testing"

	"repro/internal/cminor"
	"repro/internal/workloads"
)

// FuzzFrontEnd feeds raw bytes through parse, check and lower. Each
// stage runs only on its predecessor's clean output, and none may
// panic: a hostile request body reaches exactly this path.
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
		Lower(info, file)
	})
}
