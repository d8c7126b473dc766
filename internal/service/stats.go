package service

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// PhaseTotal aggregates one pipeline phase's cost across every run
// the service finished.
type PhaseTotal struct {
	Runs       uint64        `json:"runs"`
	Wall       time.Duration `json:"wall_ns"`
	AllocBytes int64         `json:"alloc_bytes"`
}

// latencyBuckets are the histogram upper bounds in seconds, shared by
// every service latency histogram (analyze, queue wait, per-phase).
// They span 1ms to 1min log-ish; observations above the last bound
// land in the implicit +Inf bucket.
var latencyBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram with lock-free
// observation — the service records every request on the hot path.
type histogram struct {
	// counts[i] is the number of observations <= latencyBuckets[i];
	// counts[len(latencyBuckets)] is the +Inf overflow bucket. Buckets
	// are NOT cumulative here; exposition cumulates.
	counts [len(latencyBuckets) + 1]atomic.Uint64
	sumNS  atomic.Int64
	count  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && secs > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
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

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: latencyBuckets[:],
		Counts: make([]uint64, len(h.counts)),
		Sum:    time.Duration(h.sumNS.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Stats is a point-in-time snapshot of the service's counters and
// gauges (the /v1/stats payload).
type Stats struct {
	// Requests counts every Analyze call, however it was served.
	Requests uint64 `json:"requests"`
	// Hits were served from the result cache without running anything.
	Hits uint64 `json:"cache_hits"`
	// Coalesced joined an identical in-flight run (singleflight).
	Coalesced uint64 `json:"coalesced"`
	// Misses ran the pipeline.
	Misses uint64 `json:"cache_misses"`
	// Overloads were rejected by admission control.
	Overloads uint64 `json:"overloads"`
	// Errors counts failed requests of any kind, overloads included.
	Errors uint64 `json:"errors"`
	// Inflight is the number of pipeline runs executing right now.
	Inflight int64 `json:"inflight"`
	// Queued is the number of requests waiting for a worker slot.
	Queued int64 `json:"queued"`
	// CacheEntries is the current cache population; CacheEvictions
	// counts entries dropped to make room.
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// DeltaRequests counts requests that named a base snapshot;
	// SnapshotHits found it, SnapshotGone did not (the 409 path).
	DeltaRequests uint64 `json:"delta_requests"`
	SnapshotHits  uint64 `json:"snapshot_hits"`
	SnapshotGone  uint64 `json:"snapshot_gone"`
	// SnapshotEntries is the snapshot store's population;
	// SnapshotEvictions counts snapshots dropped to make room.
	SnapshotEntries   int    `json:"snapshot_entries"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
	// FrontendFilesReused and FrontendFilesRerun count, across every
	// snapshot-backed pipeline run, source files whose front-end
	// artifacts were reused versus re-parsed.
	FrontendFilesReused uint64 `json:"frontend_files_reused"`
	FrontendFilesRerun  uint64 `json:"frontend_files_rerun"`
	// QueueWaits counts requests that had to queue; QueueWait is their
	// cumulative wait, MaxQueueWait the single longest.
	QueueWaits   uint64        `json:"queue_waits"`
	QueueWait    time.Duration `json:"queue_wait_ns"`
	MaxQueueWait time.Duration `json:"max_queue_wait_ns"`
	// Phases aggregates per-phase cost over every pipeline run that
	// finished: a run that failed or was cancelled part way adds
	// nothing, not even for the phases it completed.
	Phases map[string]PhaseTotal `json:"phases,omitempty"`
	// BDDOutputs accumulates, over every finished pipeline run, the
	// bdd_* counters the pairs phase reports (node/tuple footprint and
	// op-cache traffic).
	BDDOutputs map[string]int64 `json:"bdd_outputs,omitempty"`
	// Warnings sums the warnings reported by every pipeline run the
	// service executed (cache hits and coalesced waiters share their
	// leader's run and do not re-count).
	Warnings uint64 `json:"warnings_total"`
	// ExplainRequests counts Explain calls served.
	ExplainRequests uint64 `json:"explain_requests"`
	// QueryRequests counts demand pair queries served;
	// QueryInconsistent counts the subset whose verdict was
	// inconsistent.
	QueryRequests     uint64 `json:"query_requests"`
	QueryInconsistent uint64 `json:"query_inconsistent"`
	// Histograms holds the latency distributions: "analyze" (end-to-end
	// Analyze latency), "queue_wait" (admission queue wait), and
	// "phase:<name>" (per-phase pipeline duration, finished runs only).
	// Only histograms with at least one observation appear.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// collector is the service's live counter set.
type collector struct {
	requests, hits, coalesced, misses, overloads, errs atomic.Uint64
	deltaRequests, snapshotHits, snapshotGone          atomic.Uint64
	frontendReused, frontendRerun                      atomic.Uint64
	warnings                                           atomic.Uint64
	explainRequests                                    atomic.Uint64
	queryRequests, queryInconsistent                   atomic.Uint64
	inflight, queued                                   atomic.Int64
	queueWaits                                         atomic.Uint64
	queueWaitNS, maxQueueWaitNS                        atomic.Int64

	analyzeHist histogram
	queueHist   histogram
	explainHist histogram
	queryHist   histogram

	mu         sync.Mutex
	phases     map[string]*PhaseTotal
	phaseHists map[string]*histogram
	bddOutputs map[string]int64
}

func newCollector() *collector {
	return &collector{
		phases:     make(map[string]*PhaseTotal),
		phaseHists: make(map[string]*histogram),
		bddOutputs: make(map[string]int64),
	}
}

func (c *collector) recordQueueWait(d time.Duration) {
	c.queueWaits.Add(1)
	c.queueWaitNS.Add(int64(d))
	c.queueHist.observe(d)
	for {
		max := c.maxQueueWaitNS.Load()
		if int64(d) <= max || c.maxQueueWaitNS.CompareAndSwap(max, int64(d)) {
			return
		}
	}
}

// recordPhases folds a finished run's per-phase stats into the
// per-phase totals, the "phase:<name>" histograms, and the BDD kernel
// counters the pairs phase reports.
func (c *collector) recordPhases(phases []core.PhaseStat) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ps := range phases {
		pt := c.phases[ps.Name]
		if pt == nil {
			pt = &PhaseTotal{}
			c.phases[ps.Name] = pt
		}
		pt.Runs++
		pt.Wall += ps.Time
		pt.AllocBytes += ps.AllocBytes
		for k, v := range ps.Outputs {
			if strings.HasPrefix(k, "bdd_") {
				c.bddOutputs[k] += v
			}
		}
		ph := c.phaseHists[ps.Name]
		if ph == nil {
			ph = &histogram{}
			c.phaseHists[ps.Name] = ph
		}
		ph.observe(ps.Time)
	}
}

// snapshot copies the counters into a Stats value.
func (c *collector) snapshot() Stats {
	s := Stats{
		Requests:     c.requests.Load(),
		Hits:         c.hits.Load(),
		Coalesced:    c.coalesced.Load(),
		Misses:       c.misses.Load(),
		Overloads:    c.overloads.Load(),
		Errors:       c.errs.Load(),
		Inflight:     c.inflight.Load(),
		Queued:       c.queued.Load(),
		QueueWaits:   c.queueWaits.Load(),
		QueueWait:    time.Duration(c.queueWaitNS.Load()),
		MaxQueueWait: time.Duration(c.maxQueueWaitNS.Load()),

		DeltaRequests:       c.deltaRequests.Load(),
		SnapshotHits:        c.snapshotHits.Load(),
		SnapshotGone:        c.snapshotGone.Load(),
		FrontendFilesReused: c.frontendReused.Load(),
		FrontendFilesRerun:  c.frontendRerun.Load(),
		Warnings:            c.warnings.Load(),
		ExplainRequests:     c.explainRequests.Load(),
		QueryRequests:       c.queryRequests.Load(),
		QueryInconsistent:   c.queryInconsistent.Load(),
	}
	s.Histograms = make(map[string]HistogramSnapshot)
	if hs := c.analyzeHist.snapshot(); hs.Count > 0 {
		s.Histograms["analyze"] = hs
	}
	if hs := c.queueHist.snapshot(); hs.Count > 0 {
		s.Histograms["queue_wait"] = hs
	}
	if hs := c.explainHist.snapshot(); hs.Count > 0 {
		s.Histograms["explain"] = hs
	}
	if hs := c.queryHist.snapshot(); hs.Count > 0 {
		s.Histograms["query"] = hs
	}
	c.mu.Lock()
	if len(c.phases) > 0 {
		s.Phases = make(map[string]PhaseTotal, len(c.phases))
		for name, pt := range c.phases {
			s.Phases[name] = *pt
		}
	}
	if len(c.bddOutputs) > 0 {
		s.BDDOutputs = make(map[string]int64, len(c.bddOutputs))
		for k, v := range c.bddOutputs {
			s.BDDOutputs[k] = v
		}
	}
	for name, h := range c.phaseHists {
		if hs := h.snapshot(); hs.Count > 0 {
			s.Histograms["phase:"+name] = hs
		}
	}
	c.mu.Unlock()
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	return s
}
