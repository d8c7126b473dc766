// Package service wraps the RegionWiz analysis pipeline in a
// long-running, cache-backed service: the engine behind the
// regionwiz.Analyzer handle and the regionwizd daemon.
//
// A request is (Options, sources). The service keys it by a
// content-addressed digest — the options fingerprint plus per-file
// source digests — and serves it one of three ways:
//
//   - cache hit: a completed identical request's result is returned
//     without running anything;
//   - coalesced: an identical request is already in flight, so this
//     one waits and shares its result (singleflight);
//   - fresh run: the request passes admission control (a bounded
//     worker pool with a bounded wait queue and per-request deadline)
//     and runs the pipeline; overflow is rejected with a typed
//     overload error instead of piling up goroutines.
//
// Per-phase cost totals (folded from each finished run's report),
// hit/miss/overload counters, and queue-wait gauges are exposed via
// Stats.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/trace"
)

// Config sizes the service. The zero value is ready to use.
type Config struct {
	// Workers bounds concurrent pipeline runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the pool
	// (default 64). With the pool and queue both full, Analyze fails
	// fast with an overload error.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 128; negative
	// disables caching — requests still coalesce while in flight).
	CacheEntries int
	// SnapshotEntries bounds the LRU snapshot store backing delta
	// requests (default 16; negative disables snapshots — every delta
	// request then fails with a snapshot-gone error and full requests
	// skip snapshot building). Snapshots hold parsed files and IR for
	// the whole source set, so they are much heavier than cached
	// results; size accordingly.
	SnapshotEntries int
	// RequestTimeout, when positive, caps each request end to end:
	// queue wait plus pipeline run (default none). The caller's
	// context deadline applies in addition.
	RequestTimeout time.Duration
	// BDD is the default BDD kernel sizing applied to requests that do
	// not set their own (the zero value keeps the kernel defaults).
	// Kernel sizing never changes results, so it does not enter cache
	// keys.
	BDD bdd.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.SnapshotEntries == 0 {
		c.SnapshotEntries = 16
	}
	if c.SnapshotEntries < 0 {
		c.SnapshotEntries = 0
	}
	return c
}

// Result is one served analysis.
type Result struct {
	// Analysis is the full pipeline state. Cached results share it:
	// treat it as immutable.
	Analysis *core.Analysis
	// ReportJSON is the canonical (compact) report encoding,
	// marshalled once when the run completed. Identical requests get
	// byte-identical ReportJSON regardless of how they were served.
	ReportJSON []byte
	// Key is the content-addressed request key.
	Key string
	// Cached reports a cache hit; Coalesced reports having shared an
	// in-flight identical run. Both false means this request ran the
	// pipeline.
	Cached    bool
	Coalesced bool
	// Delta describes how a delta request decomposed, nil for full
	// requests. It reflects the request's shape, not how the result was
	// computed: a delta request answered from the cache still reports
	// its file split.
	Delta *DeltaInfo

	// snap is the front-end snapshot the run produced, deposited into
	// the snapshot store under Key; nil for cache hits and when
	// snapshots are disabled.
	snap *core.Snapshot
}

// DeltaInfo summarizes a delta request against its base snapshot.
type DeltaInfo struct {
	// Base is the snapshot key the request named.
	Base string
	// FilesReused counts files taken unchanged from the base;
	// FilesChanged counts edited or added files; FilesRemoved counts
	// deletions.
	FilesReused  int
	FilesChanged int
	FilesRemoved int
}

// deltaReq is the delta half of a request on its way through the
// service.
type deltaReq struct {
	base    string
	changed map[string]string
	removed []string
}

// call is one in-flight pipeline run shared by identical requests.
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// Service is a reusable, concurrency-safe analysis front end.
// Create with New, release with Close.
type Service struct {
	cfg   Config
	stats *collector
	sem   chan struct{} // worker slots

	mu     sync.Mutex
	cache  *lruCache
	snaps  *snapStore
	calls  map[string]*call
	closed bool

	closeCh chan struct{}
	wg      sync.WaitGroup // in-flight leader requests

	// leadHook, when set, is called by every leader after admission
	// and before the analysis, inside the leader's panic boundary,
	// with the request's full source set. Tests use it to park or
	// count runs and to inject a panic.
	leadHook func(sources map[string]string)
}

// New builds a Service from the config.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		stats:   newCollector(),
		sem:     make(chan struct{}, cfg.Workers),
		cache:   newLRUCache(cfg.CacheEntries),
		snaps:   newSnapStore(cfg.SnapshotEntries),
		calls:   make(map[string]*call),
		closeCh: make(chan struct{}),
	}
}

// Key returns the content-addressed cache key of a request: the
// normalized options fingerprint combined with a per-file digest of
// every source (see Digest). Any change to an option that can alter
// results, to a path, or to a file's content changes the key. The key
// of a completed request is also its snapshot handle: a later delta
// request names it as "base".
func Key(opts core.Options, sources map[string]string) string {
	h := sha256.New()
	io.WriteString(h, opts.Fingerprint())
	writeSources(h, sources)
	return hex.EncodeToString(h.Sum(nil))
}

// Analyze serves one analysis request. Identical repeats are answered
// from the cache (Result.Cached) or coalesced onto an in-flight run
// (Result.Coalesced); fresh work passes admission control first and
// fails fast with an ErrOverload-kind *core.Error when the pool and
// queue are saturated. Errors are shared with coalesced waiters but
// never cached, so a failed request does not poison its key.
func (s *Service) Analyze(ctx context.Context, opts core.Options, sources map[string]string) (*Result, error) {
	return s.serve(ctx, opts, sources, nil)
}

// AnalyzeDelta serves a delta request: the source set of a previous
// response (named by its key, the snapshot base) with changed paths
// overwritten or added and removed paths deleted. The run reuses the
// base snapshot's per-file front end; if the base has been evicted —
// or was never computed — the request fails with an
// ErrSnapshotGone-kind error (HTTP 409) and the client retries with
// full sources. The result is keyed and cached exactly as the
// equivalent full request would be: the report bytes are identical and
// the response key is a valid base for the next delta.
func (s *Service) AnalyzeDelta(ctx context.Context, opts core.Options, base string, changed map[string]string, removed []string) (*Result, error) {
	return s.serve(ctx, opts, nil, &deltaReq{base: base, changed: changed, removed: removed})
}

// serve is the shared outer shell: request accounting around analyze.
func (s *Service) serve(ctx context.Context, opts core.Options, sources map[string]string, delta *deltaReq) (*Result, error) {
	s.stats.requests.Add(1)
	if delta != nil {
		s.stats.deltaRequests.Add(1)
	}
	t0 := time.Now()
	ctx, sp := trace.StartSpan(ctx, "service.request")
	res, err := s.analyze(ctx, opts, sources, delta)
	s.stats.analyzeHist.observe(time.Since(t0))
	if err != nil {
		s.stats.errs.Add(1)
		sp.End(trace.Bool("error", true), trace.Str("outcome", "error"))
		return nil, err
	}
	if sp != nil {
		outcome := "run"
		switch {
		case res.Cached:
			outcome = "cache_hit"
		case res.Coalesced:
			outcome = "coalesced"
		}
		sp.End(trace.Str("outcome", outcome), trace.Str("key", res.Key[:12]))
	}
	return res, nil
}

func (s *Service) analyze(ctx context.Context, opts core.Options, sources map[string]string, delta *deltaReq) (*Result, error) {
	opts = opts.Normalize()
	if opts.Solver.BDD == (bdd.Config{}) {
		opts.Solver.BDD = s.cfg.BDD
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	// A delta request materializes its source set from the base
	// snapshot, then flows through keying, caching, and coalescing
	// exactly like the full request it abbreviates.
	var base *core.Snapshot
	var dinfo *DeltaInfo
	if delta != nil {
		s.mu.Lock()
		snap, ok := s.snaps.get(delta.base)
		s.mu.Unlock()
		if !ok {
			s.stats.snapshotGone.Add(1)
			return nil, core.Errf(core.ErrSnapshotGone, "",
				"base snapshot %.12s… is gone (evicted or never computed); retry with full sources", delta.base)
		}
		if snap.Options().Fingerprint() != opts.Fingerprint() {
			return nil, core.Errf(core.ErrConfig, "",
				"delta request options do not match the base snapshot's")
		}
		s.stats.snapshotHits.Add(1)
		base = snap
		sources = snap.Apply(delta.changed, delta.removed)
		dinfo = &DeltaInfo{
			Base:         delta.base,
			FilesChanged: len(delta.changed),
			FilesRemoved: len(delta.removed),
		}
		for p := range sources {
			if _, changed := delta.changed[p]; !changed {
				dinfo.FilesReused++
			}
		}
	}
	if len(sources) == 0 {
		return nil, core.Errf(core.ErrConfig, "", "analysis request has no sources")
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	key := Key(opts, sources)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed()
	}
	if res, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.stats.hits.Add(1)
		if sp := trace.SpanFromContext(ctx); sp != nil {
			sp.Event("cache_hit")
		}
		hit := *res
		hit.Cached = true
		hit.Delta = dinfo
		return &hit, nil
	}
	if c, ok := s.calls[key]; ok {
		s.mu.Unlock()
		cctx, wsp := trace.StartSpan(ctx, "service.coalesce_wait")
		res, err := s.await(cctx, c)
		wsp.End()
		if err == nil {
			res.Delta = dinfo
		}
		return res, err
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.wg.Add(1)
	s.mu.Unlock()

	res, err := s.lead(ctx, key, opts, sources, base, delta)
	if err == nil {
		res.Delta = dinfo
	}

	s.mu.Lock()
	delete(s.calls, key)
	if err == nil {
		s.cache.add(key, res)
		if res.snap != nil {
			s.snaps.add(key, res.snap)
		}
	}
	s.mu.Unlock()
	c.res, c.err = res, err
	close(c.done)
	s.wg.Done()
	return res, err
}

// lead runs the leader path behind a panic boundary. A panic anywhere
// in admission or the pipeline becomes an ErrInternal error, which
// analyze then hands to the leader and every coalesced waiter while
// it releases the in-flight entry as usual. run's own deferred
// releases (admission slot, inflight gauge) fire during the unwind.
func (s *Service) lead(ctx context.Context, key string, opts core.Options, sources map[string]string, base *core.Snapshot, delta *deltaReq) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			slog.Default().LogAttrs(ctx, slog.LevelError, "analysis panicked",
				slog.String("id", RequestID(ctx)),
				slog.String("key", key),
				slog.Any("panic", p),
				slog.String("stack", string(debug.Stack())))
			res, err = nil, core.Errf(core.ErrInternal, "", "analysis panicked: %v", p)
		}
	}()
	return s.run(ctx, key, opts, sources, base, delta)
}

// await joins an in-flight identical run.
func (s *Service) await(ctx context.Context, c *call) (*Result, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		s.stats.coalesced.Add(1)
		shared := *c.res
		shared.Coalesced = true
		return &shared, nil
	case <-ctx.Done():
		return nil, core.WrapError(core.ErrInternal, ctx.Err())
	}
}

// run is the leader path: admission control, then the pipeline. base
// and delta are non-nil for delta requests; the snapshot the run
// produces rides back on Result.snap.
func (s *Service) run(ctx context.Context, key string, opts core.Options, sources map[string]string, base *core.Snapshot, delta *deltaReq) (*Result, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// Pool full: queue if there is room, fail fast otherwise.
		if s.stats.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.stats.queued.Add(-1)
			s.stats.overloads.Add(1)
			return nil, core.Errf(core.ErrOverload, "",
				"analysis service overloaded: %d workers busy and queue of %d full",
				s.cfg.Workers, s.cfg.QueueDepth)
		}
		t0 := time.Now()
		_, qsp := trace.StartSpan(ctx, "service.admission_wait")
		select {
		case s.sem <- struct{}{}:
			s.stats.queued.Add(-1)
			qsp.End()
			s.stats.recordQueueWait(time.Since(t0))
		case <-ctx.Done():
			s.stats.queued.Add(-1)
			s.stats.overloads.Add(1)
			qsp.End(trace.Str("outcome", "expired"))
			return nil, &core.Error{
				Kind: core.ErrOverload,
				Msg:  fmt.Sprintf("analysis request expired after queueing %v: %v", time.Since(t0).Round(time.Millisecond), ctx.Err()),
				Err:  ctx.Err(),
			}
		case <-s.closeCh:
			s.stats.queued.Add(-1)
			qsp.End(trace.Str("outcome", "closed"))
			return nil, errClosed()
		}
	}
	defer func() { <-s.sem }()

	s.stats.misses.Add(1)
	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)

	if s.leadHook != nil {
		s.leadHook(sources)
	}
	actx, asp := trace.StartSpan(ctx, "service.analysis")
	var a *core.Analysis
	var snap *core.Snapshot
	var err error
	switch {
	case base != nil:
		a, snap, err = core.AnalyzeIncremental(actx, opts, base, delta.changed, delta.removed)
	case s.cfg.SnapshotEntries > 0:
		a, snap, err = core.AnalyzeSourceSnapshot(actx, opts, sources)
	default:
		a, err = core.AnalyzeSourceContext(actx, opts, sources)
	}
	asp.End(trace.Bool("error", err != nil))
	if err != nil {
		return nil, err
	}
	s.stats.recordPhases(a.Report.Stats.Phases)
	s.stats.frontendReused.Add(uint64(a.Front.ParseReused))
	s.stats.frontendRerun.Add(uint64(a.Front.ParseParsed))
	_, esp := trace.StartSpan(ctx, "service.encode")
	data, err := json.Marshal(a.Report)
	if esp != nil {
		esp.End(trace.Int("bytes", len(data)))
	}
	if err != nil {
		return nil, core.WrapError(core.ErrInternal, err)
	}
	s.stats.warnings.Add(uint64(len(a.Report.Warnings)))
	return &Result{Analysis: a, ReportJSON: data, Key: key, snap: snap}, nil
}

// ExplainResult is one served provenance query.
type ExplainResult struct {
	// Explanations holds the requested subset of the report's
	// warnings, in report order.
	Explanations []*core.Explanation
	// Warnings is the underlying report's total warning count,
	// whatever subset was explained.
	Warnings int
}

// Explain answers a why-provenance query against a completed request,
// named by its content-addressed key. warning is a 1-based report
// index; 0 (or any non-positive value) explains every warning. The
// explanation engine runs over the cached Result's analysis state: if
// the key has been evicted — or never completed — Explain fails with
// an ErrSnapshotGone-kind error (HTTP 409) and the client re-runs the
// analysis first.
func (s *Service) Explain(ctx context.Context, key string, warning int) (*ExplainResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed()
	}
	res, ok := s.cache.get(key)
	s.mu.Unlock()
	if !ok {
		return nil, core.Errf(core.ErrSnapshotGone, "",
			"result %.12s… is gone (evicted or never computed); re-run the analysis and retry", key)
	}
	t0 := time.Now()
	defer func() { s.stats.explainHist.observe(time.Since(t0)) }()
	s.stats.explainRequests.Add(1)
	// The cached Analysis is shared and immutable; Explainer is
	// read-only over it, so concurrent Explain calls on one key are
	// safe.
	ex, err := res.Analysis.Explainer(ctx)
	if err != nil {
		return nil, err
	}
	out := &ExplainResult{Warnings: len(res.Analysis.Report.Warnings)}
	if warning <= 0 {
		out.Explanations, err = ex.ExplainAll(ctx)
	} else {
		var e *core.Explanation
		if e, err = ex.Explain(ctx, warning); err == nil {
			out.Explanations = []*core.Explanation{e}
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryResult is one served demand pair query.
type QueryResult struct {
	// Answer is the pair verdict (schema "regionwiz/query/v1").
	Answer *core.PairAnswer
}

// Query answers a demand-driven pair query against a completed
// request, named by its content-addressed key: may the objects
// allocated at src hold pointers into the objects allocated at dst
// across regions with no subregion order? src and dst are "file:line"
// or "file:line:col" allocation-site positions. The query runs over
// the cached Result's analysis state — the run's object pairs between
// the two sites are read off, nothing is re-solved — and its verdict
// agrees with the cached report. If the key has been evicted — or never
// completed — Query fails with an ErrSnapshotGone-kind error (HTTP
// 409) and the client re-runs the analysis first.
func (s *Service) Query(ctx context.Context, key, src, dst string) (*QueryResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed()
	}
	res, ok := s.cache.get(key)
	s.mu.Unlock()
	if !ok {
		return nil, core.Errf(core.ErrSnapshotGone, "",
			"result %.12s… is gone (evicted or never computed); re-run the analysis and retry", key)
	}
	t0 := time.Now()
	defer func() { s.stats.queryHist.observe(time.Since(t0)) }()
	s.stats.queryRequests.Add(1)
	// The cached Analysis is shared and immutable; QueryPair is
	// read-only over it, so concurrent queries on one key are safe.
	ans, err := res.Analysis.QueryPair(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	if ans.Inconsistent {
		s.stats.queryInconsistent.Add(1)
	}
	return &QueryResult{Answer: ans}, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := s.stats.snapshot()
	s.mu.Lock()
	st.CacheEntries = s.cache.len()
	st.CacheEvictions = s.cache.evictions
	st.SnapshotEntries = s.snaps.len()
	st.SnapshotEvictions = s.snaps.evictions
	s.mu.Unlock()
	return st
}

// Close rejects new requests, fails queued ones, and waits for
// running pipelines to finish. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closeCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func errClosed() error {
	return core.Errf(core.ErrInternal, "", "analysis service is closed")
}
