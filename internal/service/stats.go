package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// spanBuckets are the upper bounds, in seconds, of every span
// histogram: 50µs to 1min, log-ish, so that a hot request's sub-ms
// spans and a paper-scale run's phases both resolve. Observations above
// the last bound land in the implicit +Inf bucket.
var spanBuckets = [...]float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is one span's fixed-bucket duration histogram. counts[i]
// is the number of observations <= spanBuckets[i] and above the bound
// before it; the last entry is the +Inf bucket. Exposition cumulates.
type histogram struct {
	counts [len(spanBuckets) + 1]uint64
	sum    time.Duration
	count  uint64
}

// HistogramSnapshot is one histogram's point-in-time state. Counts are
// per-bucket (not cumulative) and aligned with Bounds; the final entry
// is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64     `json:"bounds_s"`
	Counts []uint64      `json:"counts"`
	Sum    time.Duration `json:"sum_ns"`
	Count  uint64        `json:"count"`
}

// Stats is a point-in-time snapshot of the service's counters and
// gauges (the /v1/stats payload). The summary counters are derived
// from two tables, Outcomes and Histograms.
type Stats struct {
	// Requests counts every Analyze and AnalyzeDelta call, however it
	// was served.
	Requests uint64 `json:"requests"`
	// Hits were served from the result cache without running anything.
	Hits uint64 `json:"cache_hits"`
	// Coalesced joined an identical in-flight run (singleflight).
	Coalesced uint64 `json:"coalesced"`
	// Misses ran the pipeline: the "service.analysis" span count.
	Misses uint64 `json:"cache_misses"`
	// Overloads failed with an overload error: rejected by admission
	// control, or coalesced onto a leader that was.
	Overloads uint64 `json:"overloads"`
	// Errors counts failed Analyze and AnalyzeDelta calls of any kind,
	// overloads included.
	Errors uint64 `json:"errors"`
	// Inflight is the number of pipeline runs executing right now.
	Inflight int64 `json:"inflight"`
	// Queued is the number of requests waiting for a worker slot.
	Queued int64 `json:"queued"`
	// CacheEntries is the current cache population; CacheEvictions
	// counts entries dropped to make room.
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// QueueWait is the cumulative admission queue wait: the
	// "service.admission_wait" span sum.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Outcomes counts service calls by path ("analyze", "delta",
	// "explain", "query") and outcome: "run", "cache_hit" or
	// "coalesced" for analyses, "ok" for explain and query, and the
	// error kind for any failure.
	Outcomes map[string]map[string]uint64 `json:"outcomes,omitempty"`
	// Histograms holds the duration of every ended span the service
	// opens, keyed by span name: "http.request", "service.key", ...,
	// and "phase:<name>" for each finished run's phases. Only spans
	// that ended at least once appear.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// AllocBytes sums, per "phase:<name>" span, the bytes allocated
	// while the phase ran (see core.PhaseStat.AllocBytes).
	AllocBytes map[string]int64 `json:"alloc_bytes,omitempty"`
}

// cell is one cell of the request counter.
type cell struct{ path, outcome string }

// collector is the service's live counter set: one request counter,
// one histogram per span name, and the two gauges admission control
// reads.
type collector struct {
	inflight, queued atomic.Int64

	mu       sync.Mutex
	requests map[cell]uint64
	spans    map[string]*histogram
	allocs   map[string]int64
}

func newCollector() *collector {
	return &collector{
		requests: make(map[cell]uint64),
		spans:    make(map[string]*histogram),
		allocs:   make(map[string]int64),
	}
}

// request counts one service call on path: under outcome, or under
// err's kind when err is non-nil.
func (c *collector) request(path, outcome string, err error) {
	if err != nil {
		var aerr *core.Error
		outcome = core.ErrInternal.String()
		if errors.As(err, &aerr) {
			outcome = aerr.Kind.String()
		}
	}
	c.mu.Lock()
	c.requests[cell{path, outcome}]++
	c.mu.Unlock()
}

// observeLocked adds one duration to the named span's histogram.
func (c *collector) observeLocked(name string, d time.Duration) {
	h := c.spans[name]
	if h == nil {
		h = &histogram{}
		c.spans[name] = h
	}
	i := 0
	for i < len(spanBuckets) && d.Seconds() > spanBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.count++
}

// recordPhases observes a finished run's phases as "phase:<name>"
// spans and adds their allocation. A failed run reports no phases, so
// it adds nothing, not even for the phases it completed.
func (c *collector) recordPhases(phases []core.PhaseStat) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ps := range phases {
		name := "phase:" + ps.Name
		c.observeLocked(name, ps.Time)
		c.allocs[name] += ps.AllocBytes
	}
}

// span is one service stage: a trace span when the request is traced,
// and in every case one observation of the span histogram when it
// ends. The service times itself under the names its traces use.
type span struct {
	*trace.Span
	c    *collector
	name string
	t0   time.Time
}

// start opens a stage that begins now.
func (c *collector) start(ctx context.Context, name string) (context.Context, span) {
	return c.startAt(ctx, name, time.Now())
}

// startAt opens a stage that began at t0.
func (c *collector) startAt(ctx context.Context, name string, t0 time.Time) (context.Context, span) {
	ctx, sp := trace.StartSpanAt(ctx, name, t0)
	return ctx, span{sp, c, name, t0}
}

// end ends the trace span, if any, with attrs and observes the stage.
func (s span) end(attrs ...trace.Attr) {
	s.Span.End(attrs...)
	d := time.Since(s.t0)
	s.c.mu.Lock()
	s.c.observeLocked(s.name, d)
	s.c.mu.Unlock()
}

// snapshot copies the tables into a Stats value and derives the
// summary counters from them.
func (c *collector) snapshot() Stats {
	s := Stats{
		Inflight:   c.inflight.Load(),
		Queued:     c.queued.Load(),
		Outcomes:   make(map[string]map[string]uint64),
		Histograms: make(map[string]HistogramSnapshot),
		AllocBytes: make(map[string]int64),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, n := range c.requests {
		if s.Outcomes[k.path] == nil {
			s.Outcomes[k.path] = make(map[string]uint64)
		}
		s.Outcomes[k.path][k.outcome] = n
		if k.path != "analyze" && k.path != "delta" {
			continue
		}
		s.Requests += n
		switch k.outcome {
		case "run":
		case "cache_hit":
			s.Hits += n
		case "coalesced":
			s.Coalesced += n
		case core.ErrOverload.String():
			s.Overloads += n
			s.Errors += n
		default:
			s.Errors += n
		}
	}
	for name, h := range c.spans {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: spanBuckets[:],
			Counts: append([]uint64(nil), h.counts[:]...),
			Sum:    h.sum,
			Count:  h.count,
		}
	}
	for name, n := range c.allocs {
		s.AllocBytes[name] = n
	}
	s.Misses = s.Histograms["service.analysis"].Count
	s.QueueWait = s.Histograms["service.admission_wait"].Sum
	return s
}

// sortedKeys returns m's keys in order, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
