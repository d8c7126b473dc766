package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestPhaseOutputsGolden pins, for every phase of every run below, the
// phase name and its sorted Outputs: which relation sizes and counters
// each phase is credited with. It covers the paper's Figure 1 program
// and one small-corpus executable, on both backends, through a plain
// run and an incremental edit with that run as its base. Two more
// runs pin the presence rules of individual keys: a context cap that
// merges contexts (ctx_capped), and a program with no ownership or
// access edges. Regenerate deliberately with
// `go test ./internal/core -run PhaseOutputsGolden -update`.
func TestPhaseOutputsGolden(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name    string
		sources map[string]string
	}{
		{"figure1", map[string]string{"figure1.c": string(fig1)}},
		{"subversion", corpusSources(t)},
	}
	backends := []struct {
		name    string
		backend Backend
	}{
		{"explicit", ExplicitBackend},
		{"bdd", BDDBackend},
	}
	ctx := context.Background()
	var buf bytes.Buffer
	for _, prog := range programs {
		for _, be := range backends {
			opts := Options{Solver: SolverOptions{Backend: be.backend}}
			base, err := AnalyzeSourceContext(ctx, opts, prog.sources)
			if err != nil {
				t.Fatalf("%s/%s source: %v", prog.name, be.name, err)
			}
			writePhaseOutputs(&buf, prog.name+" "+be.name+" source", base.Report)

			// A declaration-preserving edit of the first file (a
			// comment after its last body, which belongs to that
			// body's span): it is re-parsed and re-checked, every
			// other file is reused.
			paths := make([]string, 0, len(prog.sources))
			for p := range prog.sources {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			edit := map[string]string{paths[0]: prog.sources[paths[0]] + "\n/* edited */\n"}
			a, err := AnalyzeIncremental(ctx, opts, base, base.Apply(edit, nil))
			if err != nil {
				t.Fatalf("%s/%s incremental: %v", prog.name, be.name, err)
			}
			writePhaseOutputs(&buf, prog.name+" "+be.name+" incremental", a.Report)
		}
	}

	svn := corpusSources(t)
	capped, err := AnalyzeSourceContext(ctx, Options{ContextCap: 4}, svn)
	if err != nil {
		t.Fatalf("subversion capped: %v", err)
	}
	if !capped.Numbering.Capped {
		t.Fatal("subversion with ContextCap 4: the cap merged no contexts")
	}
	writePhaseOutputs(&buf, "subversion explicit capped", capped.Report)

	trivial := map[string]string{"main.c": "int main() { return 0; }\n"}
	for _, be := range backends {
		a, err := AnalyzeSourceContext(ctx, Options{Solver: SolverOptions{Backend: be.backend}}, trivial)
		if err != nil {
			t.Fatalf("trivial/%s: %v", be.name, err)
		}
		writePhaseOutputs(&buf, "trivial "+be.name+" source", a.Report)
	}

	golden := filepath.Join("testdata", "phase_outputs.golden")
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
		t.Errorf("phase outputs drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// writePhaseOutputs renders one run's phases, one line each, outputs
// in sorted key order.
func writePhaseOutputs(buf *bytes.Buffer, title string, r *Report) {
	fmt.Fprintf(buf, "== %s\n", title)
	for _, ps := range r.Stats.Phases {
		keys := make([]string, 0, len(ps.Outputs))
		for k := range ps.Outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(buf, "%s:", ps.Name)
		for _, k := range keys {
			fmt.Fprintf(buf, " %s=%d", k, ps.Outputs[k])
		}
		buf.WriteByte('\n')
	}
}
