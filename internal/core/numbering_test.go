package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contexts"
	"repro/internal/workloads"
)

// TestNumberingGolden pins the context numbering of every policy. For
// the paper's Figure 1 program, every small-corpus executable at seed
// 2008, and the first paper-corpus subversion executable with a
// context cap of 4, it runs the clone, k = 1, k = 2, k = 3 with cap 2,
// origin, and origin with cap 2 numberings and writes one row each:
// the total context count, whether the cap merged contexts, and a
// sha256 of every reachable function's Count and of MapContext for
// every reachable call edge and caller context. Regenerate
// deliberately with `go test ./internal/core -run NumberingGolden
// -update`.
func TestNumberingGolden(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		name    string
		sources map[string]string
		cap     uint64
	}
	programs := []program{{"figure1", map[string]string{"figure1.c": string(fig1)}, 0}}
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		for _, exe := range pkg.Exes {
			programs = append(programs, program{"seed2008/" + exe.Name, pkg.SourcesFor(exe), 0})
		}
	}
	for _, spec := range workloads.PaperCorpus() {
		if spec.Name == "subversion" {
			pkg := workloads.Generate(spec, 2008)
			programs = append(programs, program{"paper/" + pkg.Exes[0].Name, pkg.SourcesFor(pkg.Exes[0]), 4})
		}
	}
	configs := []struct {
		name string
		opts Options
	}{
		{"clone", Options{}},
		{"k1", Options{KCFA: 1}},
		{"k2", Options{KCFA: 2}},
		{"k3cap2", Options{KCFA: 3, ContextCap: 2}},
		{"origin", Options{ContextPolicy: PolicyOrigin}},
		{"origincap2", Options{ContextPolicy: PolicyOrigin, ContextCap: 2}},
	}
	var buf bytes.Buffer
	for _, p := range programs {
		for _, c := range configs {
			opts := c.opts
			if opts.ContextCap == 0 {
				opts.ContextCap = p.cap
			}
			a, err := AnalyzeSource(opts, p.sources)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, c.name, err)
			}
			n := a.Numbering
			fmt.Fprintf(&buf, "%s %s contexts=%d capped=%t sha256=%x\n",
				p.name, c.name, n.TotalContexts(), n.Capped, numberingDigest(n))
		}
	}
	golden := filepath.Join("testdata", "numbering.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("numbering drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// numberingDigest hashes n's per-function counts and its context map
// over every reachable call edge, in function-name and instruction
// order.
func numberingDigest(n *contexts.Numbering) []byte {
	h := sha256.New()
	g := n.G
	for _, fn := range g.ReachableFuncs() {
		fmt.Fprintf(h, "%s %d\n", fn, n.Count[fn])
		f := g.Prog.Funcs[fn]
		for id := f.First; id < f.End; id++ {
			for _, callee := range g.Edges[id] {
				if !g.Reachable[callee] {
					continue
				}
				e := contexts.Edge{Instr: id, Callee: callee}
				fmt.Fprintf(h, " %d %s:", id, callee)
				for ctx := uint64(0); ctx < n.Count[fn]; ctx++ {
					fmt.Fprintf(h, " %d", n.MapContext(fn, ctx, e))
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	return h.Sum(nil)
}
