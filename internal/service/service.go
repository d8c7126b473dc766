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
// The service counts every call by path and outcome, and times each
// stage it opens under the name of its trace span ("service.key",
// "service.analysis", ...), plus each finished run's "phase:<name>"
// spans. Stats, GET /v1/stats and GET /v1/metrics all read these two
// tables; tracing stays opt-in, since a stage is timed by the clock
// whether or not the request carries a tracer.
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
	// disables caching — requests still coalesce while in flight). A
	// key answers explain, query and delta requests exactly while its
	// result is cached, so with caching disabled every one of them
	// fails with a snapshot-gone error.
	CacheEntries int
	// Deprecated: ignored. Delta requests use the result cache as
	// their base store; see CacheEntries.
	SnapshotEntries int
	// RequestTimeout, when positive, caps each request end to end:
	// queue wait plus pipeline run (default none). The caller's
	// context deadline applies in addition.
	RequestTimeout time.Duration
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
	// digests holds each source's hex sha256 by path, which a delta
	// against this result reuses for the files it leaves alone.
	digests map[string]string
}

// DeltaInfo summarizes a delta request against its base result.
type DeltaInfo struct {
	// Base is the result key the request named.
	Base string
	// FilesReused counts files whose content equals the base's, listed
	// in the request or not: the run reuses their parse. FilesChanged
	// counts added paths and paths whose content differs. FilesRemoved
	// counts base paths missing from the resulting source set (a path
	// both removed and changed counts as reused or changed).
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
	cache  *lru
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
		cache:   newLRU(cfg.CacheEntries),
		calls:   make(map[string]*call),
		closeCh: make(chan struct{}),
	}
}

// Key returns the content-addressed cache key of a request: the
// normalized options fingerprint combined with a per-file digest of
// every source (see Digest). Any change to an option that can alter
// results, to a path, or to a file's content changes the key. The key
// of a completed request is also its delta handle: a later delta
// request names it as "base".
func Key(opts core.Options, sources map[string]string) string {
	return keyOf(opts, fileDigests(sources, nil))
}

// keyOf is Key over per-file digests already computed.
func keyOf(opts core.Options, digests map[string]string) string {
	h := sha256.New()
	io.WriteString(h, opts.Fingerprint())
	writeDigests(h, digests)
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
// response (named by its key, the base) with changed paths overwritten
// or added and removed paths deleted. The run reuses the cached base
// analysis's per-file front end; if the base has been evicted from the
// result cache — or was never computed — the request fails with an
// ErrSnapshotGone-kind error (HTTP 409) and the client retries with
// full sources. The result is keyed and cached exactly as the
// equivalent full request would be: the report bytes are identical and
// the response key is a valid base for the next delta.
func (s *Service) AnalyzeDelta(ctx context.Context, opts core.Options, base string, changed map[string]string, removed []string) (*Result, error) {
	return s.serve(ctx, opts, nil, &deltaReq{base: base, changed: changed, removed: removed})
}

// serve is the shared outer shell: request accounting around analyze.
func (s *Service) serve(ctx context.Context, opts core.Options, sources map[string]string, delta *deltaReq) (*Result, error) {
	path := "analyze"
	if delta != nil {
		path = "delta"
	}
	ctx, sp := s.stats.start(ctx, "service.request")
	res, err := s.analyze(ctx, opts, sources, delta)
	if err != nil {
		s.stats.request(path, "", err)
		sp.end(trace.Bool("error", true), trace.Str("outcome", "error"))
		return nil, err
	}
	outcome := "run"
	switch {
	case res.Cached:
		outcome = "cache_hit"
	case res.Coalesced:
		outcome = "coalesced"
	}
	s.stats.request(path, outcome, nil)
	sp.end(trace.Str("outcome", outcome), trace.Str("key", res.Key[:12]))
	return res, nil
}

func (s *Service) analyze(ctx context.Context, opts core.Options, sources map[string]string, delta *deltaReq) (*Result, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	// A delta request materializes its source set from the cached
	// base result, then flows through keying, caching, and coalescing
	// exactly like the full request it abbreviates.
	var base *Result
	var dinfo *DeltaInfo
	if delta != nil {
		var err error
		base, sources, dinfo, err = s.resolveDelta(ctx, opts, delta)
		if err != nil {
			return nil, err
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
	_, ksp := s.stats.start(ctx, "service.key")
	digests := fileDigests(sources, base)
	key := keyOf(opts, digests)
	ksp.end()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed()
	}
	if res, ok := s.cache.get(key); ok {
		s.mu.Unlock()
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
		cctx, wsp := s.stats.start(ctx, "service.coalesce_wait")
		res, err := s.await(cctx, c)
		wsp.end()
		if err == nil {
			res.Delta = dinfo
		}
		return res, err
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.wg.Add(1)
	s.mu.Unlock()

	var baseAnalysis *core.Analysis
	if base != nil {
		baseAnalysis = base.Analysis
	}
	res, err := s.lead(ctx, key, opts, sources, baseAnalysis)
	if err == nil {
		res.Delta, res.digests = dinfo, digests
	}

	s.mu.Lock()
	delete(s.calls, key)
	if err == nil {
		s.cache.add(key, res)
	}
	s.mu.Unlock()
	c.res, c.err = res, err
	close(c.done)
	s.wg.Done()
	return res, err
}

// resolveDelta looks up a delta's base result in the result cache and
// materializes the request's source set from it, under a
// "service.base" span.
func (s *Service) resolveDelta(ctx context.Context, opts core.Options, delta *deltaReq) (*Result, map[string]string, *DeltaInfo, error) {
	_, sp := s.stats.start(ctx, "service.base")
	s.mu.Lock()
	res, ok := s.cache.get(delta.base)
	s.mu.Unlock()
	if !ok {
		sp.end(trace.Bool("error", true))
		return nil, nil, nil, core.Errf(core.ErrSnapshotGone, "",
			"base %.12s… is gone (evicted or never computed); retry with full sources", delta.base)
	}
	base := res.Analysis
	if base.Opts.Fingerprint() != opts.Fingerprint() {
		sp.end(trace.Bool("error", true))
		return nil, nil, nil, core.Errf(core.ErrConfig, "",
			"delta request options do not match the base analysis's")
	}
	sources := base.Apply(delta.changed, delta.removed)
	dinfo := &DeltaInfo{Base: delta.base}
	for p, src := range sources {
		if old, ok := base.Sources[p]; ok && old == src {
			dinfo.FilesReused++
		} else {
			dinfo.FilesChanged++
		}
	}
	for p := range base.Sources {
		if _, kept := sources[p]; !kept {
			dinfo.FilesRemoved++
		}
	}
	sp.end(trace.Int("files_reused", dinfo.FilesReused),
		trace.Int("files_changed", dinfo.FilesChanged),
		trace.Int("files_removed", dinfo.FilesRemoved))
	return res, sources, dinfo, nil
}

// lead runs the leader path behind a panic boundary. A panic anywhere
// in admission or the pipeline becomes an ErrInternal error, which
// analyze then hands to the leader and every coalesced waiter while
// it releases the in-flight entry as usual. run's own deferred
// releases (admission slot, inflight gauge) fire during the unwind.
func (s *Service) lead(ctx context.Context, key string, opts core.Options, sources map[string]string, base *core.Analysis) (res *Result, err error) {
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
	return s.run(ctx, key, opts, sources, base)
}

// await joins an in-flight identical run.
func (s *Service) await(ctx context.Context, c *call) (*Result, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		shared := *c.res
		shared.Coalesced = true
		return &shared, nil
	case <-ctx.Done():
		return nil, core.WrapError(core.ErrInternal, ctx.Err())
	}
}

// run is the leader path: admission control, then the pipeline. base
// is non-nil for delta requests.
func (s *Service) run(ctx context.Context, key string, opts core.Options, sources map[string]string, base *core.Analysis) (*Result, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// Pool full: queue if there is room, fail fast otherwise.
		if s.stats.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.stats.queued.Add(-1)
			return nil, core.Errf(core.ErrOverload, "",
				"analysis service overloaded: %d workers busy and queue of %d full",
				s.cfg.Workers, s.cfg.QueueDepth)
		}
		_, qsp := s.stats.start(ctx, "service.admission_wait")
		select {
		case s.sem <- struct{}{}:
			s.stats.queued.Add(-1)
			qsp.end()
		case <-ctx.Done():
			s.stats.queued.Add(-1)
			qsp.end(trace.Str("outcome", "expired"))
			return nil, &core.Error{
				Kind: core.ErrOverload,
				Msg:  fmt.Sprintf("analysis request expired after queueing %v: %v", time.Since(qsp.t0).Round(time.Millisecond), ctx.Err()),
				Err:  ctx.Err(),
			}
		case <-s.closeCh:
			s.stats.queued.Add(-1)
			qsp.end(trace.Str("outcome", "closed"))
			return nil, errClosed()
		}
	}
	defer func() { <-s.sem }()

	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)

	a, err := s.pipeline(ctx, opts, sources, base)
	if err != nil {
		return nil, err
	}
	s.stats.recordPhases(a.Report.Stats.Phases)
	_, esp := s.stats.start(ctx, "service.encode")
	data, err := json.Marshal(a.Report)
	esp.end(trace.Int("bytes", len(data)))
	if err != nil {
		return nil, core.WrapError(core.ErrInternal, err)
	}
	return &Result{Analysis: a, ReportJSON: data, Key: key}, nil
}

// pipeline runs the analysis under a "service.analysis" span, which
// ends even when the run panics: every run that passed admission is
// counted (Stats.Misses).
func (s *Service) pipeline(ctx context.Context, opts core.Options, sources map[string]string, base *core.Analysis) (a *core.Analysis, err error) {
	ctx, sp := s.stats.start(ctx, "service.analysis")
	failed := true
	defer func() { sp.end(trace.Bool("error", failed)) }()
	if s.leadHook != nil {
		s.leadHook(sources)
	}
	if base != nil {
		a, err = core.AnalyzeIncremental(ctx, opts, base, sources)
	} else {
		a, err = core.AnalyzeSourceContext(ctx, opts, sources)
	}
	failed = err != nil
	return a, err
}

// cached returns the cached result of key: the one rule explain, query
// and delta share. A key that is not cached fails with an
// ErrSnapshotGone-kind error.
func (s *Service) cached(key string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed()
	}
	if res, ok := s.cache.get(key); ok {
		return res, nil
	}
	return nil, core.Errf(core.ErrSnapshotGone, "",
		"result %.12s… is gone (evicted or never computed); re-run the analysis and retry", key)
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
// explanation engine runs over the cached Result's analysis state,
// under a "service.explain" span: if the key has been evicted — or
// never completed — Explain fails with an ErrSnapshotGone-kind error
// (HTTP 409) and the client re-runs the analysis first.
func (s *Service) Explain(ctx context.Context, key string, warning int) (_ *ExplainResult, err error) {
	defer func() { s.stats.request("explain", "ok", err) }()
	res, err := s.cached(key)
	if err != nil {
		return nil, err
	}
	// The cached Analysis is shared and immutable; Explain is
	// read-only over it, so concurrent calls on one key are safe.
	ctx, sp := s.stats.start(ctx, "service.explain")
	exps, err := res.Analysis.Explain(ctx, warning)
	sp.end(trace.Bool("error", err != nil))
	if err != nil {
		return nil, err
	}
	return &ExplainResult{Warnings: len(res.Analysis.Report.Warnings), Explanations: exps}, nil
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
// the cached Result's analysis state, under a "service.query" span —
// the source site's heap cells are checked edge by edge, nothing is
// re-solved — and its verdict agrees with the cached report. If the
// key has been evicted — or never completed — Query fails with an
// ErrSnapshotGone-kind error (HTTP 409) and the client re-runs the
// analysis first.
func (s *Service) Query(ctx context.Context, key, src, dst string) (_ *QueryResult, err error) {
	defer func() { s.stats.request("query", "ok", err) }()
	res, err := s.cached(key)
	if err != nil {
		return nil, err
	}
	// The cached Analysis is shared and immutable; QueryPair is
	// read-only over it, so concurrent queries on one key are safe.
	ctx, sp := s.stats.start(ctx, "service.query")
	ans, err := res.Analysis.QueryPair(ctx, src, dst)
	sp.end(trace.Bool("error", err != nil))
	if err != nil {
		return nil, err
	}
	return &QueryResult{Answer: ans}, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := s.stats.snapshot()
	s.mu.Lock()
	st.CacheEntries = s.cache.len()
	st.CacheEvictions = s.cache.evictions
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
