package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// corpusSources returns a realistic multi-file program from the
// workload generators.
func corpusSources(t testing.TB) map[string]string {
	t.Helper()
	for _, spec := range workloads.SmallCorpus() {
		if spec.Name != "subversion" {
			continue
		}
		pkg := workloads.Generate(spec, 2008)
		return pkg.SourcesFor(pkg.Exes[0])
	}
	t.Fatal("no subversion spec in the small corpus")
	return nil
}

// normalizeReport zeroes the run-dependent cost fields (wall times,
// allocation deltas) so reports can be compared byte-for-byte; every
// analysis fact — warnings, relation sizes, phase outputs — is kept.
func normalizeReport(r *Report) {
	r.Stats.Time = 0
	for i := range r.Stats.Phases {
		r.Stats.Phases[i].Time = 0
		r.Stats.Phases[i].AllocBytes = 0
	}
}

func reportBytes(t testing.TB, r *Report) []byte {
	t.Helper()
	normalizeReport(r)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestReportDeterminism runs the same analysis twice and requires the
// JSON reports to match byte-for-byte once timing fields are zeroed —
// the regression net for the documented warning total order and for
// any map-iteration nondeterminism anywhere in the pipeline.
func TestReportDeterminism(t *testing.T) {
	sources := corpusSources(t)
	var runs [][]byte
	for i := 0; i < 2; i++ {
		a, err := AnalyzeSource(Options{}, sources)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(a.Report.Warnings) == 0 {
			t.Fatal("workload produced no warnings; the test needs a nontrivial report")
		}
		runs = append(runs, reportBytes(t, a.Report))
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("reports differ between identical runs:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			runs[0], runs[1])
	}
}

// TestWarningTotalOrder checks the documented sort: rank first, then
// holder site, then pointee site, then pair key.
func TestWarningTotalOrder(t *testing.T) {
	a, err := AnalyzeSource(Options{}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	ws := a.Report.Warnings
	for i := 1; i < len(ws); i++ {
		p, q := ws[i-1], ws[i]
		if !p.High() && q.High() {
			t.Fatalf("warning %d: low-ranked before high-ranked", i)
		}
		if p.High() != q.High() {
			continue
		}
		if p.SrcPos > q.SrcPos {
			t.Fatalf("warning %d: src %q after %q within one rank", i, p.SrcPos, q.SrcPos)
		}
		if p.SrcPos == q.SrcPos && p.DstPos > q.DstPos {
			t.Fatalf("warning %d: dst %q after %q", i, p.DstPos, q.DstPos)
		}
	}
}

// TestPhaseStatsInReport requires every analysis phase to be named
// and timed in the report, in pipeline order, and serialized in the
// JSON output.
func TestPhaseStatsInReport(t *testing.T) {
	a, err := AnalyzeSource(Options{}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	want := PhaseNames()
	got := a.Report.Stats.Phases
	if len(got) != len(want) {
		t.Fatalf("report has %d phases, want %d (%v)", len(got), len(want), want)
	}
	for i, ps := range got {
		if ps.Name != want[i] {
			t.Errorf("phase[%d] = %q, want %q", i, ps.Name, want[i])
		}
	}
	// Key relations are attributed to their phases.
	find := func(name string) PhaseStat {
		for _, ps := range got {
			if ps.Name == name {
				return ps
			}
		}
		t.Fatalf("phase %q missing", name)
		return PhaseStat{}
	}
	if find(PhasePointer).Outputs["ptr_objects"] == 0 {
		t.Error("pointer phase reports no ptr_objects")
	}
	if find(PhaseRegions).Outputs["regions"] == 0 {
		t.Error("regions phase reports no regions")
	}
	if find(PhaseContexts).Outputs["contexts"] == 0 {
		t.Error("contexts phase reports no contexts")
	}
	// And they appear in the JSON serialization.
	data, err := json.Marshal(a.Report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stats struct {
			Phases []struct {
				Name    string           `json:"name"`
				Outputs map[string]int64 `json:"outputs"`
			} `json:"phases"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Stats.Phases) != len(want) {
		t.Fatalf("JSON has %d phases, want %d", len(decoded.Stats.Phases), len(want))
	}
}

// phaseSpans runs fn under a tracer and returns its "pipeline" and
// "phase:<name>" spans in start order, as decoded Chrome trace events.
func phaseSpans(t *testing.T, fn func(ctx context.Context)) []traceEvent {
	t.Helper()
	tracer := trace.New()
	fn(trace.WithTracer(context.Background(), tracer))
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []traceEvent
	for _, ev := range doc.Events {
		if ev.Name == "pipeline" || strings.HasPrefix(ev.Name, "phase:") {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

type traceEvent struct {
	Name  string         `json:"name"`
	Ts    float64        `json:"ts"`
	Attrs map[string]any `json:"args"`
}

// TestAnalyzeCancellation cancels the context after the pointer phase:
// the run stops before the next phase and returns an internal error
// wrapping context.Canceled, with no analysis.
func TestAnalyzeCancellation(t *testing.T) {
	var ran []string
	var a *Analysis
	var err error
	spans := phaseSpans(t, func(ctx context.Context) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		phaseDone = func(name string) {
			ran = append(ran, name)
			if name == PhasePointer {
				cancel()
			}
		}
		defer func() { phaseDone = nil }()
		a, err = AnalyzeSourceContext(ctx, Options{}, corpusSources(t))
	})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrInternal || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want an internal Error wrapping context.Canceled", err)
	}
	if a != nil {
		t.Error("cancelled analysis should return nil")
	}
	want := PhaseNames()[:6]
	if fmt.Sprint(ran) != fmt.Sprint(want) || want[5] != PhasePointer {
		t.Errorf("phases ran %v, want %v", ran, want)
	}
	var names []string
	for _, sp := range spans {
		names = append(names, sp.Name)
	}
	wantSpans := []string{"pipeline"}
	for _, n := range want {
		wantSpans = append(wantSpans, "phase:"+n)
	}
	if fmt.Sprint(names) != fmt.Sprint(wantSpans) {
		t.Errorf("spans %v, want %v", names, wantSpans)
	}
	if got := spans[0].Attrs; got["phases_run"] != float64(6) || got["error"] != true {
		t.Errorf("pipeline span attrs = %v, want phases_run 6 and error", got)
	}
}

// roundCancel is a context that is cancelled while the pointer solve's
// first fixpoint round runs: its Err reports context.Canceled once its
// tracer has recorded a finished round.
type roundCancel struct {
	context.Context
	tr *trace.Tracer
}

func (c roundCancel) Err() error {
	if c.tr.Summary()["round"].Count > 0 {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeCancelledInPointerPhase: a context cancelled inside the
// pointer phase ends that phase after one solver round, and the run
// returns an internal error wrapping the cause, with no analysis.
func TestAnalyzeCancelledInPointerPhase(t *testing.T) {
	tr := trace.New()
	ctx := roundCancel{trace.WithTracer(context.Background(), tr), tr}
	var ran []string
	phaseDone = func(name string) { ran = append(ran, name) }
	defer func() { phaseDone = nil }()
	a, err := AnalyzeSourceContext(ctx, Options{}, corpusSources(t))
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrInternal || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want an internal Error wrapping context.Canceled", err)
	}
	if a != nil {
		t.Error("cancelled analysis should return nil")
	}
	if want := PhaseNames()[:6]; fmt.Sprint(ran) != fmt.Sprint(want) || want[5] != PhasePointer {
		t.Errorf("phases ran %v, want %v", ran, want)
	}
	if n := tr.Summary()["round"].Count; n != 1 {
		t.Errorf("the pointer phase ran %d rounds after the cancellation, want 1", n)
	}
}

// TestAnalyzeExpiredDeadline runs against contexts that are already
// done: no phase runs, and the error unwraps to the context's cause.
func TestAnalyzeExpiredDeadline(t *testing.T) {
	src := map[string]string{"main.c": "int main() { return 0; }"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeSourceContext(ctx, Options{}, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ran := 0
	phaseDone = func(string) { ran++ }
	defer func() { phaseDone = nil }()
	a, err := AnalyzeSourceContext(ctx, Options{}, src)
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrInternal || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want an internal Error wrapping context.DeadlineExceeded", err)
	}
	if a != nil || ran != 0 {
		t.Errorf("analysis %v and %d phases under an expired deadline, want nil and 0", a, ran)
	}
}

// TestParseErrorAbortsBeforeCheck: a phase error stops the run after
// that phase, keeps its kind, and the pipeline span records one phase.
func TestParseErrorAbortsBeforeCheck(t *testing.T) {
	var a *Analysis
	var err error
	spans := phaseSpans(t, func(ctx context.Context) {
		a, err = AnalyzeSourceContext(ctx, Options{}, map[string]string{
			"bad.c": "int main(void) { return }",
		})
	})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrParse {
		t.Fatalf("err = %v, want a parse Error", err)
	}
	if a != nil {
		t.Error("failed analysis should return nil")
	}
	if len(spans) != 2 || spans[0].Name != "pipeline" || spans[1].Name != "phase:"+PhaseParse {
		t.Fatalf("spans %v, want pipeline and phase:parse only", spans)
	}
	if got := spans[0].Attrs; got["phases_run"] != float64(1) || got["error"] != true {
		t.Errorf("pipeline span attrs = %v, want phases_run 1 and error", got)
	}
}

// TestBDDBackendMetrics checks that the BDD backend surfaces its
// node/tuple counts through the pairs phase.
func TestBDDBackendMetrics(t *testing.T) {
	a, err := AnalyzeSource(Options{Solver: SolverOptions{Backend: BDDBackend}}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	var pairs *PhaseStat
	for i := range a.Report.Stats.Phases {
		if a.Report.Stats.Phases[i].Name == PhasePairs {
			pairs = &a.Report.Stats.Phases[i]
		}
	}
	if pairs == nil {
		t.Fatal("no pairs phase in report")
	}
	if pairs.Outputs["bdd_nodes"] == 0 || pairs.Outputs["datalog_tuples"] == 0 {
		t.Errorf("pairs outputs = %v, want bdd_nodes and datalog_tuples", pairs.Outputs)
	}
}

// TestPhaseAllocIsProcessWide pins that PhaseStat.AllocBytes counts
// every goroutine's allocation, not the phase's own: a phase blocked
// on a channel is charged with the allocation of a whole analysis
// that runs to completion while it waits.
func TestPhaseAllocIsProcessWide(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	blocked := []phase{{"blocked", func(context.Context, *Analysis) (map[string]int64, error) {
		close(started)
		<-release
		return nil, nil
	}}}
	type outcome struct {
		a   *Analysis
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		a := newAnalysis(Options{})
		a.Report = &Report{}
		a, err := runPhases(context.Background(), a, blocked)
		waited <- outcome{a, err}
	}()
	<-started

	sources := corpusSources(t)
	ran := make(chan outcome, 1)
	go func() {
		a, err := AnalyzeSource(Options{}, sources)
		ran <- outcome{a, err}
	}()
	other := <-ran
	close(release)
	w := <-waited
	if other.err != nil || w.err != nil {
		t.Fatalf("concurrent run: %v; blocked run: %v", other.err, w.err)
	}
	var total int64
	for _, ps := range other.a.Report.Stats.Phases {
		total += ps.AllocBytes
	}
	if total == 0 {
		t.Fatal("the subversion run reports no allocation")
	}
	if got := w.a.Report.Stats.Phases[0].AllocBytes; got < total/2 {
		t.Errorf("blocked phase AllocBytes = %d, want at least half of the concurrent run's %d", got, total)
	}
}
