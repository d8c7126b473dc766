package regionwiz

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestTracingDoesNotPerturbReports asserts tracing is a pure
// observer: after zeroing run-dependent cost fields (wall time,
// allocation — see normalizedReportJSON), a traced analysis must
// produce byte-identical report JSON to an untraced one. That covers
// warnings, relation sizes, and the phase Outputs including the
// bdd_cache_* kernel counters, which trace-driven tuple counting must
// not touch.
func TestTracingDoesNotPerturbReports(t *testing.T) {
	sources := map[string]string{"q.c": quickstartSrc}
	for _, tc := range []struct {
		name    string
		backend Backend
	}{{"explicit", ExplicitBackend}, {"bdd", BDDBackend}} {
		t.Run(tc.name, func(t *testing.T) {
			backend := tc.backend
			opts := Options{Solver: SolverOptions{Backend: backend}}

			plain, err := AnalyzeSourceContext(context.Background(), opts, sources)
			if err != nil {
				t.Fatal(err)
			}

			tracer := trace.New()
			ctx := trace.WithTracer(context.Background(), tracer)
			traced, err := AnalyzeSourceContext(ctx, opts, sources)
			if err != nil {
				t.Fatal(err)
			}

			got := normalizedReportJSON(t, traced.Report)
			want := normalizedReportJSON(t, plain.Report)
			if string(got) != string(want) {
				t.Errorf("traced report differs from untraced:\n traced: %s\nuntraced: %s", got, want)
			}

			sum := tracer.Summary()
			if sum["pipeline"].Count != 1 {
				t.Fatalf("pipeline spans = %d, want 1", sum["pipeline"].Count)
			}
			for _, name := range []string{"phase:parse", "phase:pointer", "phase:pairs", "pointer.solve"} {
				if sum[name].Count == 0 {
					t.Errorf("trace lacks %q span (have %v)", name, spanNames(sum))
				}
			}
			if backend == BDDBackend {
				// The BDD pairs phase runs the datalog engine: its
				// per-stratum and per-rule fixpoint spans must show up.
				found := false
				for name := range sum {
					if strings.HasPrefix(name, "rule:") {
						found = true
					}
				}
				if !found {
					t.Errorf("bdd backend trace has no rule: spans (have %v)", spanNames(sum))
				}
				if sum["datalog.seminaive"].Count == 0 {
					t.Error("bdd backend trace has no datalog.seminaive span")
				}
			}
		})
	}
}

func spanNames(sum map[string]trace.SpanTotal) []string {
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	return names
}

// TestConcurrentCorpusTraceWellFormed runs several analyses through
// the parallel corpus driver against ONE shared tracer (the regionwiz
// -trace shape) and checks the export stays well-formed: valid JSON,
// versioned schema, every set's root span present on its own lane,
// and every event carrying a positive lane. Run under -race in CI,
// this is also the tracer's concurrency proof at system scale.
func TestConcurrentCorpusTraceWellFormed(t *testing.T) {
	type job struct {
		name    string
		sources map[string]string
	}
	var jobs []job
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		for _, exe := range pkg.Exes {
			jobs = append(jobs, job{exe.Name, pkg.SourcesFor(exe)})
		}
	}
	tracer := trace.New()
	ctx := trace.WithTracer(context.Background(), tracer)
	results := pipeline.RunCorpus(ctx, jobs, 4,
		func(ctx context.Context, j job) (*Analysis, error) {
			ctx, sp := trace.StartSpan(ctx, "analyze:"+j.name)
			a, err := AnalyzeSourceContext(ctx, Options{}, j.sources)
			sp.End(trace.Bool("error", err != nil))
			return a, err
		})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", jobs[i].name, res.Err)
		}
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  uint64  `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	if doc.Schema != trace.SchemaV1 {
		t.Fatalf("schema = %q, want %q", doc.Schema, trace.SchemaV1)
	}
	lanes := make(map[string]uint64)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Tid == 0 {
			t.Fatalf("event %q has no lane", ev.Name)
		}
		if strings.HasPrefix(ev.Name, "analyze:") {
			if other, dup := lanes[ev.Name]; dup && other != ev.Tid {
				t.Fatalf("set %q spans two lanes (%d, %d)", ev.Name, other, ev.Tid)
			}
			lanes[ev.Name] = ev.Tid
		}
	}
	if len(lanes) != len(jobs) {
		t.Fatalf("trace has %d analyze: root spans, want %d", len(lanes), len(jobs))
	}
	seen := make(map[uint64]string)
	for name, lane := range lanes {
		if prev, dup := seen[lane]; dup {
			t.Fatalf("sets %q and %q share lane %d", prev, name, lane)
		}
		seen[lane] = name
	}
}
