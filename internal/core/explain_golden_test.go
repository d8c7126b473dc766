package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workloads"
)

// TestExplainGolden pins the explanation bytes: for the paper's
// Figure 1 program and every executable of the small corpus at seeds
// 2008 and 77, the sha256 of the MarshalExplanations document of every
// warning, one line per program. Regenerate deliberately with
// `go test ./internal/core -run ExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		name    string
		sources map[string]string
	}
	programs := []program{{"figure1", map[string]string{"figure1.c": string(fig1)}}}
	for _, seed := range []int64{2008, 77} {
		for _, spec := range workloads.SmallCorpus() {
			pkg := workloads.Generate(spec, seed)
			for _, exe := range pkg.Exes {
				programs = append(programs, program{fmt.Sprintf("seed%d/%s", seed, exe.Name), pkg.SourcesFor(exe)})
			}
		}
	}
	ctx := context.Background()
	var buf bytes.Buffer
	for _, p := range programs {
		a, err := AnalyzeSource(Options{}, p.sources)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		exps, err := a.Explain(ctx, 0)
		if err != nil {
			t.Fatalf("%s: explain: %v", p.name, err)
		}
		doc, err := MarshalExplanations(exps)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s warnings=%d sha256=%x\n", p.name, len(exps), sha256.Sum256(doc))
	}
	golden := filepath.Join("testdata", "explain.golden")
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
		t.Errorf("explanations drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
