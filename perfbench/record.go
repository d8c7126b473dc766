package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
)

// phaseNames are the pipeline phases, reported one by one in the
// per-layer breakdown.
var phaseNames = []string{
	"parse", "check", "lower", "callgraph", "contexts", "pointer",
	"regions", "ownership", "access", "pairs", "post",
}

var frontEnd = map[string]bool{"parse": true, "check": true, "lower": true}

// phase is one pipeline phase of a fresh analysis run, as a report
// (library or wire form) describes it.
type phase struct {
	Name       string           `json:"name"`
	TimeMS     float64          `json:"time_ms"`
	AllocBytes int64            `json:"alloc_bytes"`
	Outputs    map[string]int64 `json:"outputs"`
}

func phasesOf(r *regionwiz.Report) []phase {
	out := make([]phase, len(r.Stats.Phases))
	for i, p := range r.Stats.Phases {
		out[i] = phase{p.Name, float64(p.Time) / 1e6, p.AllocBytes, p.Outputs}
	}
	return out
}

// op is one measured operation: its latency, the part of it the
// benchmark itself spent (request encoding, response decoding), and the
// phases of every pipeline run it caused (none for a cache hit).
type op struct {
	kind   string
	start  time.Time
	wall   time.Duration
	client time.Duration
	runs   [][]phase
}

// span is one recorded trace span. Operation and client spans carry
// measured start times; phase spans are laid end to end from their
// operation's start, since reports give phase durations only.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spend adds benchmark-side work (encoding, decoding) that is part of
// the operation's latency.
func (o *op) spend(d time.Duration) {
	o.wall += d
	o.client += d
}

// recorder accumulates operations from any number of goroutines.
type recorder struct {
	mu        sync.Mutex
	origin    time.Time
	traced    bool
	lat       []float64 // per-operation latency, ms
	attempted int
	failed    int
	problems  []string

	phaseMS                  map[string]float64
	frontAlloc, backAlloc    int64
	unattributedMS, clientMS float64
	runs                     int
	filesReused, filesParsed int64
	bddHits, bddMisses       int64
	bddNodes                 int64
	bddRuns                  int
	cacheHits, cacheMisses   uint64
	queueWaitMS              float64
	spans                    []span
}

// newRecorder returns an empty recorder; it keeps trace spans only when
// traced, so untraced runs measure without them.
func newRecorder(traced bool) *recorder {
	return &recorder{origin: time.Now(), traced: traced, phaseMS: map[string]float64{}}
}

// maxProblems bounds the incorrect-output messages kept for stderr.
const maxProblems = 10

// attempt counts a call into RegionWiz about to be made.
func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records a call that returned an error.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failed++
	r.problemLocked(err.Error())
	r.mu.Unlock()
}

// wrong records an output that disagrees with the expected one.
func (r *recorder) wrong(format string, args ...any) {
	r.mu.Lock()
	r.problemLocked(fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) problemLocked(msg string) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, msg)
	} else if len(r.problems) == maxProblems {
		r.problems = append(r.problems, "... further problems omitted")
	}
}

// add records one completed operation.
func (r *recorder) add(o op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wallMS := float64(o.wall) / 1e6
	r.lat = append(r.lat, wallMS)
	r.clientMS += float64(o.client) / 1e6
	start := float64(o.start.Sub(r.origin)) / 1e3
	root := r.span(0, "op:"+o.kind, start, wallMS*1e3)
	if o.client > 0 {
		r.span(root, "client", start, float64(o.client)/1e3)
	}
	inPhases := 0.0
	at := start
	for _, run := range o.runs {
		r.runs++
		for _, p := range run {
			inPhases += p.TimeMS
			r.span(root, "phase:"+p.Name, at, p.TimeMS*1e3)
			at += p.TimeMS * 1e3
			r.phaseMS[p.Name] += p.TimeMS
			if frontEnd[p.Name] {
				r.frontAlloc += p.AllocBytes
			} else {
				r.backAlloc += p.AllocBytes
			}
			r.filesReused += p.Outputs["parse_files_reused"]
			r.filesParsed += p.Outputs["parse_files_parsed"]
			if n, ok := p.Outputs["bdd_nodes"]; ok {
				r.bddRuns++
				r.bddNodes += n
				r.bddHits += p.Outputs["bdd_cache_hits"]
				r.bddMisses += p.Outputs["bdd_cache_misses"]
			}
		}
	}
	r.unattributedMS += wallMS - float64(o.client)/1e6 - inPhases
}

// span records a trace span when tracing and returns its id.
func (r *recorder) span(parent int, name string, startUS, durUS float64) int {
	if !r.traced {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: startUS, DurUS: durUS})
	return id
}

// service records the service-layer counters of the measured interval.
func (r *recorder) service(before, after regionwiz.ServiceStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheHits += after.Hits - before.Hits
	r.cacheMisses += after.Misses - before.Misses
	r.queueWaitMS += float64(after.QueueWait-before.QueueWait) / 1e6
}

// layers is the per-layer breakdown, normalized per operation where the
// metric is a cost. Waiting in the service queue and the benchmark's own
// encoding are given as shares of the summed operation latency.
func (r *recorder) layers(ops float64) map[string]metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[string]metric{}
	for _, name := range phaseNames {
		m[name+"_ms"] = metric{r.phaseMS[name] / ops, "ms"}
	}
	totalMS := 0.0
	for _, ms := range r.lat {
		totalMS += ms
	}
	m["unattributed_ms"] = metric{(r.unattributedMS - r.queueWaitMS) / ops, "ms"}
	m["client_share"] = metric{r.clientMS / totalMS, "ratio"}
	m["queue_wait_share"] = metric{r.queueWaitMS / totalMS, "ratio"}
	m["frontend_alloc_mb"] = metric{float64(r.frontAlloc) / 1e6 / ops, "MB"}
	m["backend_alloc_mb"] = metric{float64(r.backAlloc) / 1e6 / ops, "MB"}
	m["pipeline_runs"] = metric{float64(r.runs) / ops, "count"}
	m["frontend_reuse_ratio"] = metric{ratio(r.filesReused, r.filesReused+r.filesParsed), "ratio"}
	m["bdd_op_cache_hit_ratio"] = metric{ratio(r.bddHits, r.bddHits+r.bddMisses), "ratio"}
	bddNodes := 0.0
	if r.bddRuns > 0 {
		bddNodes = float64(r.bddNodes) / float64(r.bddRuns)
	}
	m["bdd_nodes"] = metric{bddNodes, "count"}
	m["cache_hit_ratio"] = metric{ratio(int64(r.cacheHits), int64(r.cacheHits+r.cacheMisses)), "ratio"}
	return m
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// writeTrace writes the recorded spans as JSON lines under
// .bench_build/perfbench-trace/ in the current directory.
func writeTrace(rec *recorder, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			rec.mu.Unlock()
			f.Close()
			return err
		}
	}
	rec.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
