package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// These tests run core's analysis pipeline the way corpus drivers do:
// one analysis per RunCorpus job, all under the corpus context.

// span is one finished trace span, as WriteChromeTrace renders it.
type span struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"args"`
}

// traced is one job's analysis, its pipeline span and its
// phase:<name> spans in start order.
type traced struct {
	a      *core.Analysis
	run    span
	phases []span
}

// analyzeTraced analyzes sources under ctx with a tracer of its own.
func analyzeTraced(ctx context.Context, sources map[string]string) (traced, error) {
	tr := trace.New()
	a, err := core.AnalyzeSourceContext(trace.WithTracer(ctx, tr), core.Options{}, sources)
	var buf bytes.Buffer
	if werr := tr.WriteChromeTrace(&buf); werr != nil {
		return traced{}, werr
	}
	var doc struct {
		Events []span `json:"traceEvents"`
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if derr := dec.Decode(&doc); derr != nil {
		return traced{}, derr
	}
	out := traced{a: a}
	for _, s := range doc.Events {
		switch {
		case s.Name == "pipeline":
			out.run = s
		case strings.HasPrefix(s.Name, "phase:"):
			out.phases = append(out.phases, s)
		}
	}
	return out, err
}

func programs(t *testing.T) []map[string]string {
	t.Helper()
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	return []map[string]string{
		{"figure1.c": string(fig1)},
		{"main.c": "int main() { return 0; }"},
		{"figure1.c": string(fig1)},
	}
}

// stopAfterChecks is a context whose first n Err checks report nil and
// every later one reports cause: a cancellation or deadline landing at
// an exact point between two checks. RunCorpus checks ctx once before
// each job and the phase loop once before each phase, so the point is
// deterministic.
type stopAfterChecks struct {
	context.Context
	mu    sync.Mutex
	left  int
	cause error
	done  chan struct{}
}

func newStopAfterChecks(n int, cause error) *stopAfterChecks {
	return &stopAfterChecks{
		Context: context.Background(),
		left:    n,
		cause:   cause,
		done:    make(chan struct{}),
	}
}

func (c *stopAfterChecks) Done() <-chan struct{} { return c.done }

func (c *stopAfterChecks) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return c.cause
}

func spanNames(spans []span) []string {
	names := []string{}
	for _, s := range spans {
		names = append(names, s.Name)
	}
	return names
}

// wantSpans is the phase span sequence of a run whose first n phases
// ran.
func wantSpans(n int) []string {
	names := []string{}
	for _, p := range core.PhaseNames()[:n] {
		names = append(names, "phase:"+p)
	}
	return names
}

// checkStopped requires a job's run to have stopped after its first n
// phases with an internal error wrapping cause and no analysis.
func checkStopped(t *testing.T, res pipeline.CorpusResult[traced], n int, cause error) {
	t.Helper()
	var aerr *core.Error
	if !errors.As(res.Err, &aerr) || aerr.Kind != core.ErrInternal || !errors.Is(res.Err, cause) {
		t.Fatalf("job %d: err = %v, want an internal Error wrapping %v", res.Index, res.Err, cause)
	}
	if res.Out.a != nil {
		t.Errorf("job %d: stopped run returned an analysis", res.Index)
	}
	if got := spanNames(res.Out.phases); fmt.Sprint(got) != fmt.Sprint(wantSpans(n)) {
		t.Errorf("job %d: phase spans %v, want %v", res.Index, got, wantSpans(n))
	}
	last := res.Out.run.Attrs
	if fmt.Sprint(last["phases_run"]) != fmt.Sprint(n) || fmt.Sprint(last["error"]) != "true" {
		t.Errorf("job %d: pipeline span attrs %v, want phases_run %d and error", res.Index, last, n)
	}
}

// TestPhaseOrder runs the phases of every corpus job in the order of
// core.PhaseNames, and each phase's span carries exactly the wall time
// and allocation the report records for it.
func TestPhaseOrder(t *testing.T) {
	results := pipeline.RunCorpus(context.Background(), programs(t), 3, analyzeTraced)
	names := core.PhaseNames()
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", res.Index, res.Err)
		}
		if got := spanNames(res.Out.phases); fmt.Sprint(got) != fmt.Sprint(wantSpans(len(names))) {
			t.Fatalf("job %d: phase spans %v, want %v", res.Index, got, wantSpans(len(names)))
		}
		phases := res.Out.a.Report.Stats.Phases
		if len(phases) != len(names) {
			t.Fatalf("job %d: report has %d phases, want %d", res.Index, len(phases), len(names))
		}
		for i, ps := range phases {
			if ps.Name != names[i] {
				t.Errorf("job %d: phase[%d] = %q, want %q", res.Index, i, ps.Name, names[i])
			}
			attrs := res.Out.phases[i].Attrs
			if fmt.Sprint(attrs["wall_ns"]) != fmt.Sprint(int64(ps.Time)) ||
				fmt.Sprint(attrs["alloc_bytes"]) != fmt.Sprint(ps.AllocBytes) {
				t.Errorf("job %d: phase %s span attrs %v, report has wall %d alloc %d",
					res.Index, ps.Name, attrs, int64(ps.Time), ps.AllocBytes)
			}
		}
		last := res.Out.run.Attrs
		if fmt.Sprint(last["phases_run"]) != fmt.Sprint(len(names)) || fmt.Sprint(last["error"]) != "false" {
			t.Errorf("job %d: pipeline span attrs %v, want phases_run %d and no error",
				res.Index, last, len(names))
		}
	}
}

// TestCancellationStopsPipeline cancels the corpus context while the
// first job is between its pointer and regions phases: that run stops
// before regions, and the jobs behind it never start.
func TestCancellationStopsPipeline(t *testing.T) {
	const ran = 6 // parse through pointer
	if core.PhaseNames()[ran-1] != core.PhasePointer {
		t.Fatalf("phase %d is %q, want %q", ran, core.PhaseNames()[ran-1], core.PhasePointer)
	}
	ctx := newStopAfterChecks(1+ran, context.Canceled)
	calls := 0
	results := pipeline.RunCorpus(ctx, programs(t), 1,
		func(ctx context.Context, src map[string]string) (traced, error) {
			calls++
			return analyzeTraced(ctx, src)
		})
	checkStopped(t, results[0], ran, context.Canceled)
	for _, res := range results[1:] {
		if res.Err != context.Canceled {
			t.Errorf("job %d: err = %v, want context.Canceled", res.Index, res.Err)
		}
	}
	if calls != 1 {
		t.Errorf("%d jobs started, want 1", calls)
	}
}

// TestDeadlineExceeded lets the corpus deadline pass after the first
// job starts but before its first phase: no phase runs, and the error
// unwraps to context.DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	ctx := newStopAfterChecks(1, context.DeadlineExceeded)
	results := pipeline.RunCorpus(ctx, programs(t), 1, analyzeTraced)
	checkStopped(t, results[0], 0, context.DeadlineExceeded)
	for _, res := range results[1:] {
		if res.Err != context.DeadlineExceeded {
			t.Errorf("job %d: err = %v, want context.DeadlineExceeded", res.Index, res.Err)
		}
	}
}
