package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fixedClock steps the tracer clock 1ms per reading, making exports
// deterministic.
func fixedClock(t *Tracer) {
	var tick time.Duration
	t.now = func() time.Duration {
		tick += time.Millisecond
		return tick
	}
}

// TestChromeTraceGolden pins the trace_event JSON schema (versioned
// regionwiz/trace/v1): span nesting, lanes, instant events, typed
// attributes. Regenerate with UPDATE_GOLDEN=1 go test ./internal/trace.
func TestChromeTraceGolden(t *testing.T) {
	tr := New()
	fixedClock(tr)

	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "pipeline")
	ctx2, phase := StartSpan(ctx, "phase:pointer")
	phase.Event("bdd_grow", Int("nodes", 8192), Int("capacity", 16384))
	rule := phase.Child("rule:vP:-assign,vP")
	rule.End(Int64("new_tuples", 17), Str("delta", "vP"))
	phase.End(Int64("alloc_bytes", 4096))
	_ = ctx2
	root.End(Bool("fixpoint", true))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// Structural checks independent of the golden bytes.
	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.Schema != SchemaV1 {
		t.Errorf("schema = %q, want %q", doc.Schema, SchemaV1)
	}
	for _, ev := range doc.Events {
		for _, key := range []string{"name", "ph", "pid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %v missing %q", ev, key)
			}
		}
	}
}

// TestChromeTraceSpanAndEvent: a span and an instant event on it each
// export as one record of the versioned document, the event naming the
// span as its parent.
func TestChromeTraceSpanAndEvent(t *testing.T) {
	tr := New()
	fixedClock(tr)
	sp := tr.Root("solve")
	sp.Event("round", Int("n", 1))
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string        `json:"schema"`
		Events []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaV1 {
		t.Errorf("schema = %q, want %q", doc.Schema, SchemaV1)
	}
	if len(doc.Events) != 3 {
		t.Fatalf("got %d events, want process metadata, the span and the event:\n%s", len(doc.Events), buf.String())
	}
	span, event := doc.Events[1], doc.Events[2]
	if span.Name != "solve" || span.Ph != "X" || event.Name != "round" || event.Ph != "i" {
		t.Fatalf("records %+v, %+v; want the solve span, then its round event", span, event)
	}
	if event.Args["parent_span"] != span.Args["span_id"] || event.Tid != span.Tid {
		t.Errorf("event args %v on lane %d, span args %v on lane %d", event.Args, event.Tid, span.Args, span.Tid)
	}
}

func TestSummary(t *testing.T) {
	tr := New()
	fixedClock(tr)
	for i := 0; i < 3; i++ {
		sp := tr.Root("phase:parse")
		sp.End()
	}
	tr.Root("phase:check").End()
	s := tr.Summary()
	if s["phase:parse"].Count != 3 {
		t.Errorf("parse count = %d, want 3", s["phase:parse"].Count)
	}
	if s["phase:parse"].Wall <= 0 {
		t.Errorf("parse wall = %v, want > 0", s["phase:parse"].Wall)
	}
	if s["phase:check"].Count != 1 {
		t.Errorf("check count = %d, want 1", s["phase:check"].Count)
	}
}

// TestTracingOffZeroAllocs asserts the no-Tracer path costs zero
// allocations: the exact call shape the datalog solver and pipeline
// runner use per round must be free when tracing is off.
func TestTracingOffZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, "datalog.seminaive")
		if sp != nil {
			sp.Event("round", Int("delta", 1))
		}
		child := sp.Child("rule")
		child.End()
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Errorf("tracing-off path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentSpans exercises the tracer from many goroutines (run
// under -race in CI) and checks the export stays well-formed.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, root := StartSpan(ctx, "worker")
			for i := 0; i < 50; i++ {
				_, sp := StartSpan(wctx, "unit")
				sp.Event("tick", Int("i", i))
				sp.End(Int("i", i))
			}
			root.End()
		}(w)
	}
	wg.Wait()

	if got, want := tr.Len(), workers*(1+2*50); got != want {
		t.Errorf("recorded %d records, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	lanes := map[uint64]bool{}
	for _, ev := range doc.Events {
		if ev.Ph == "M" {
			continue
		}
		lanes[ev.Tid] = true
	}
	if len(lanes) != workers {
		t.Errorf("trace uses %d lanes, want %d (one per concurrent root)", len(lanes), workers)
	}
}

func TestNestingAndLanes(t *testing.T) {
	tr := New()
	fixedClock(tr)
	ctx := WithTracer(context.Background(), tr)
	ctx1, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx1, "b")
	b.End()
	a.End()
	_, c := StartSpan(ctx, "c")
	c.End()

	recs := tr.snapshot()
	byName := map[string]record{}
	for _, r := range recs {
		byName[r.name] = r
	}
	if byName["b"].parent != byName["a"].id {
		t.Errorf("b.parent = %d, want a.id = %d", byName["b"].parent, byName["a"].id)
	}
	if byName["b"].lane != byName["a"].lane {
		t.Errorf("child lane %d differs from parent lane %d", byName["b"].lane, byName["a"].lane)
	}
	if byName["c"].lane == byName["a"].lane {
		t.Errorf("independent roots share lane %d", byName["c"].lane)
	}
	if byName["c"].parent != 0 {
		t.Errorf("root c has parent %d", byName["c"].parent)
	}
}
