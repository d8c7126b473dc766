package regionwiz

import (
	"context"
	"net/http"

	"repro/internal/service"
)

// AnalyzerConfig sizes an Analyzer's service layer: worker pool,
// admission queue, result cache, and per-request deadline. The zero
// value is ready to use (GOMAXPROCS workers, queue depth 64, 128
// cached results, no deadline). The result cache is also the store of
// delta bases: a Key works as an AnalyzeDelta base exactly while its
// result is cached. SnapshotEntries is deprecated and ignored.
type AnalyzerConfig = service.Config

// ServiceStats is a snapshot of an Analyzer's counters: calls counted
// by path and outcome, a duration histogram per span name (the
// service's own stages and each finished run's phases), and the
// inflight, queued and cache gauges. Requests, Hits, Misses,
// Coalesced, Overloads, Errors and QueueWait summarize those tables.
type ServiceStats = service.Stats

// Result is one served analysis: the full pipeline state, the
// canonical report JSON (byte-identical across identical requests),
// the content-addressed request key, and how the request was served
// (fresh run, cache hit, or coalesced onto an in-flight run).
type Result = service.Result

// DeltaInfo describes how a delta request resolved against its base
// result (Result.Delta; nil on full requests).
type DeltaInfo = service.DeltaInfo

// Analyzer is a reusable, concurrency-safe analysis handle. Unlike
// the one-shot package functions it keeps a content-addressed result
// cache and a bounded worker pool between calls, so repeating an
// analysis over unchanged sources is effectively free and a burst of
// requests degrades into typed overload errors instead of unbounded
// goroutines. Create with New (or NewAnalyzer to size the pool and
// cache), release with Close.
type Analyzer struct {
	opts Options
	svc  *service.Service
}

// New validates the options and returns a reusable Analyzer handle
// with default service sizing.
func New(opts Options) (*Analyzer, error) {
	return NewAnalyzer(opts, AnalyzerConfig{})
}

// NewAnalyzer is New with explicit service sizing.
func NewAnalyzer(opts Options, cfg AnalyzerConfig) (*Analyzer, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{opts: opts, svc: service.New(cfg)}, nil
}

// Analyze analyzes path->content sources with the handle's options
// and returns the report. An identical repeat (same options, same
// sources) is served from the cache without running the pipeline.
func (a *Analyzer) Analyze(ctx context.Context, sources map[string]string) (*Report, error) {
	res, err := a.AnalyzeResult(ctx, sources)
	if err != nil {
		return nil, err
	}
	return res.Analysis.Report, nil
}

// AnalyzeFiles reads the given files from disk and analyzes them as
// one program. The cache key covers file contents, so editing a file
// naturally invalidates its cached results. Duplicate paths (after
// cleaning) are rejected.
func (a *Analyzer) AnalyzeFiles(ctx context.Context, paths ...string) (*Report, error) {
	sources, err := readSourceFiles(paths)
	if err != nil {
		return nil, err
	}
	return a.Analyze(ctx, sources)
}

// AnalyzeResult is Analyze returning the full service Result — the
// pipeline state, the canonical report JSON, and the cached/coalesced
// disposition.
func (a *Analyzer) AnalyzeResult(ctx context.Context, sources map[string]string) (*Result, error) {
	return a.svc.Analyze(ctx, a.opts, sources)
}

// AnalyzeDelta re-analyzes the source set of a previous result — named
// by its Key — with changed paths overwritten or added and removed
// paths deleted, reusing the base run's per-file front end. If the
// base result has been evicted from the cache the call fails with an
// ErrSnapshotGone-kind error; retry with AnalyzeResult and the full
// sources. The report is the one the equivalent full request would
// produce, and the result's Key is a valid base for the next delta.
func (a *Analyzer) AnalyzeDelta(ctx context.Context, base string, changed map[string]string, removed []string) (*Result, error) {
	return a.svc.AnalyzeDelta(ctx, a.opts, base, changed, removed)
}

// Options returns the handle's normalized options.
func (a *Analyzer) Options() Options { return a.opts }

// Stats snapshots the handle's service counters.
func (a *Analyzer) Stats() ServiceStats { return a.svc.Stats() }

// Close rejects new requests, fails queued ones with a typed error,
// and waits for running analyses to finish. Idempotent.
func (a *Analyzer) Close() error { return a.svc.Close() }

// Handler exposes the Analyzer's service over HTTP with the
// regionwizd endpoint set (POST /v1/analyze, GET /v1/healthz,
// GET /v1/metrics, GET /v1/stats). HTTP requests carry their own
// options; the handle's options do not apply to them.
func (a *Analyzer) Handler() http.Handler { return service.NewHandler(a.svc) }
