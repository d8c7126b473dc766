package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// maxRequestBody bounds a POST /v1/analyze body (sources are text;
// the paper's largest case study is a few MB).
const maxRequestBody = 64 << 20

// AnalyzeResponse is the POST /v1/analyze success body.
type AnalyzeResponse struct {
	// Cached and Coalesced mirror Result: how the request was served.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Key is the content-addressed request key (stable across
	// identical requests; useful for client-side caching).
	Key string `json:"key"`
	// Report is the versioned report encoding (schema
	// "regionwiz/report/v1"), byte-identical across identical
	// requests.
	Report json.RawMessage `json:"report"`
	// Trace is the request's Chrome trace_event document (schema
	// "regionwiz/trace/v1"), present only when the request set
	// "trace": true. The report bytes are identical with and without
	// it.
	Trace json.RawMessage `json:"trace,omitempty"`
	// Delta describes how a delta request was resolved; absent on full
	// requests.
	Delta *DeltaResponse `json:"delta,omitempty"`
}

// DeltaResponse is the response's "delta" block (schema
// "regionwiz/delta/v1"): how the base's sources plus the request's
// edits composed into the analyzed source set.
type DeltaResponse struct {
	Schema       string `json:"schema"`
	Base         string `json:"base"`
	FilesReused  int    `json:"files_reused"`
	FilesChanged int    `json:"files_changed"`
	FilesRemoved int    `json:"files_removed"`
}

// requestIDKey carries the per-request ID (set by the daemon's logging
// middleware) through the context.
type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID; handlers
// attach it to spans and log lines.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error errorJSON `json:"error"`
}

type errorJSON struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Pos     string `json:"pos,omitempty"`
	// RequestID echoes the per-request id the daemon's access log
	// carries, so a failure body correlates directly with its log
	// lines. Absent when no logging middleware set an id.
	RequestID string `json:"request_id,omitempty"`
}

// ExplainResponse is the GET /v1/explain success body.
type ExplainResponse struct {
	// Schema versions the explanation encoding; every tree in
	// Explanations carries the same marker.
	Schema string `json:"schema"`
	// Key is the analysis result the explanations were derived from.
	Key string `json:"key"`
	// WarningsTotal is the report's full warning count, whatever
	// subset was requested.
	WarningsTotal int `json:"warnings_total"`
	// Explanations holds the requested warnings' derivation trees in
	// report order (schema "regionwiz/explain/v1").
	Explanations []*core.Explanation `json:"explanations"`
}

// QueryResponse is the GET /v1/query success body.
type QueryResponse struct {
	// Schema versions the answer encoding ("regionwiz/query/v1"); the
	// embedded answer carries the same marker.
	Schema string `json:"schema"`
	// Key is the analysis result the query ran against.
	Key string `json:"key"`
	// Answer is the pair verdict.
	Answer *core.PairAnswer `json:"answer"`
}

// NewHandler exposes a Service over HTTP:
//
//	POST /v1/analyze  — run (or replay) an analysis
//	GET  /v1/explain  — why-provenance trees for a cached result
//	GET  /v1/query    — pair verdict read from a cached result
//	GET  /v1/healthz  — liveness
//	GET  /v1/metrics  — counters in Prometheus text exposition format
//	GET  /v1/stats    — counters as JSON
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		handleAnalyze(s, w, r)
	})
	mux.HandleFunc("/v1/explain", func(w http.ResponseWriter, r *http.Request) {
		handleExplain(s, w, r)
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r)
	})
	mux.HandleFunc("/v1/healthz", readOnly("healthz", func(w http.ResponseWriter) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.HandleFunc("/v1/metrics", readOnly("metrics", func(w http.ResponseWriter) {
		writeMetrics(w, s.Stats())
	}))
	mux.HandleFunc("/v1/stats", readOnly("stats", func(w http.ResponseWriter) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	return mux
}

// readOnly serves a read-only endpoint: GET and HEAD get the body,
// any other method a 405 with an Allow header.
func readOnly(name string, serve func(http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(r.Context(), w, http.StatusMethodNotAllowed,
				core.Errf(core.ErrConfig, "", "%s wants GET, got %s", name, r.Method))
			return
		}
		serve(w)
	}
}

func handleAnalyze(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(r.Context(), w, http.StatusMethodNotAllowed,
			core.Errf(core.ErrConfig, "", "analyze wants POST, got %s", r.Method))
		return
	}
	// The body says whether to trace, so a traced request's clock
	// starts here and its spans are opened once the body is decoded.
	start := time.Now()
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength)
	var req Request
	var fast bool
	if err == nil {
		req, fast, err = decodeRequest(body)
	}
	if err != nil {
		writeError(r.Context(), w, http.StatusBadRequest,
			core.Errf(core.ErrConfig, "", "bad request body: %v", err))
		return
	}
	ctx := r.Context()
	var tr *trace.Tracer
	if req.Trace {
		tr = trace.NewAt(start)
		ctx = trace.WithTracer(ctx, tr)
	}
	ctx, root := s.stats.startAt(ctx, "http.request", start)
	if id := RequestID(ctx); id != "" {
		root.Attrs(trace.Str("request_id", id))
	}
	path := "fallback"
	if fast {
		path = "fast"
	}
	_, dsp := s.stats.startAt(ctx, "http.decode", start)
	dsp.end(trace.Int("body_bytes", len(body)), trace.Str("path", path))
	res, err := dispatch(ctx, s, &req)
	root.end(trace.Bool("error", err != nil))
	if err != nil {
		writeError(ctx, w, statusFor(err), err)
		return
	}
	if res.Cached {
		w.Header().Set("X-Regionwiz-Cache", "hit")
	} else {
		w.Header().Set("X-Regionwiz-Cache", "miss")
	}
	resp := AnalyzeResponse{
		Cached:    res.Cached,
		Coalesced: res.Coalesced,
		Key:       res.Key,
		Report:    json.RawMessage(res.ReportJSON),
	}
	if res.Delta != nil {
		resp.Delta = &DeltaResponse{
			Schema:       DeltaSchemaV1,
			Base:         res.Delta.Base,
			FilesReused:  res.Delta.FilesReused,
			FilesChanged: res.Delta.FilesChanged,
			FilesRemoved: res.Delta.FilesRemoved,
		}
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err == nil {
			resp.Trace = json.RawMessage(buf.Bytes())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// dispatch sends a decoded analyze request to the service as a full or
// a delta request.
func dispatch(ctx context.Context, s *Service, req *Request) (*Result, error) {
	opts, err := req.Options.ToOptions()
	if err != nil {
		return nil, err
	}
	if req.Base != "" {
		if len(req.Sources) > 0 {
			return nil, core.Errf(core.ErrConfig, "",
				"a delta request (base set) must not also carry full sources")
		}
		return s.AnalyzeDelta(ctx, opts, req.Base, req.Changed, req.Removed)
	}
	if len(req.Changed) > 0 || len(req.Removed) > 0 {
		return nil, core.Errf(core.ErrConfig, "", "changed/removed require a base key")
	}
	return s.Analyze(ctx, opts, req.Sources)
}

// handleExplain serves GET /v1/explain?key=<result key>[&warning=N|all].
// The key names a completed /v1/analyze response; warning selects one
// 1-based report index or every warning ("all", the default). A key
// that has been evicted from the result cache answers 409 with kind
// "snapshot_gone": re-run the analysis (same sources, same options —
// the key is content-addressed, so it comes back identical) and retry.
func handleExplain(s *Service, w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(ctx, w, http.StatusMethodNotAllowed,
			core.Errf(core.ErrConfig, "", "explain wants GET, got %s", r.Method))
		return
	}
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		writeError(ctx, w, http.StatusBadRequest,
			core.Errf(core.ErrConfig, "", "explain wants ?key=<analyze response key>"))
		return
	}
	warning := 0
	if sel := q.Get("warning"); sel != "" && sel != "all" {
		n, err := strconv.Atoi(sel)
		if err != nil || n < 1 {
			writeError(ctx, w, http.StatusBadRequest, core.Errf(core.ErrConfig, "",
				"explain: warning must be a 1-based index or \"all\", got %q", sel))
			return
		}
		warning = n
	}
	res, err := s.Explain(ctx, key, warning)
	if err != nil {
		writeError(ctx, w, statusFor(err), err)
		return
	}
	exps := res.Explanations
	if exps == nil {
		exps = []*core.Explanation{}
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Schema:        core.ExplainSchemaV1,
		Key:           key,
		WarningsTotal: res.Warnings,
		Explanations:  exps,
	})
}

// handleQuery serves GET /v1/query?key=<result key>&src=<pos>&dst=<pos>.
// The key names a completed /v1/analyze response; src and dst are
// "file:line" or "file:line:col" allocation-site positions. A key that
// has been evicted from the result cache answers 409 with kind
// "snapshot_gone": re-run the analysis (same sources, same options —
// the key is content-addressed, so it comes back identical) and retry.
func handleQuery(s *Service, w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(ctx, w, http.StatusMethodNotAllowed,
			core.Errf(core.ErrConfig, "", "query wants GET, got %s", r.Method))
		return
	}
	q := r.URL.Query()
	key, src, dst := q.Get("key"), q.Get("src"), q.Get("dst")
	if key == "" || src == "" || dst == "" {
		writeError(ctx, w, http.StatusBadRequest, core.Errf(core.ErrConfig, "",
			"query wants ?key=<analyze response key>&src=<file:line[:col]>&dst=<file:line[:col]>"))
		return
	}
	res, err := s.Query(ctx, key, src, dst)
	if err != nil {
		writeError(ctx, w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Schema: core.QuerySchemaV1,
		Key:    key,
		Answer: res.Answer,
	})
}

// statusFor maps error kinds to HTTP statuses.
func statusFor(err error) int {
	var aerr *core.Error
	if !errors.As(err, &aerr) {
		return http.StatusInternalServerError
	}
	switch aerr.Kind {
	case core.ErrConfig:
		return http.StatusBadRequest
	case core.ErrParse, core.ErrResolve:
		return http.StatusUnprocessableEntity
	case core.ErrOverload:
		return http.StatusTooManyRequests
	case core.ErrSnapshotGone:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders a failure body. The context's request id (set by
// the daemon's logging middleware) is echoed into the body and onto a
// structured log line, so a 4xx/5xx response, its access-log entry,
// and its error detail all correlate on one id.
func writeError(ctx context.Context, w http.ResponseWriter, status int, err error) {
	kind, pos := core.ErrInternal, ""
	var aerr *core.Error
	if errors.As(err, &aerr) {
		kind, pos = aerr.Kind, aerr.Pos
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	id := RequestID(ctx)
	level := slog.LevelWarn
	if status >= 500 {
		level = slog.LevelError
	}
	slog.Default().LogAttrs(ctx, level, "request failed",
		slog.String("id", id),
		slog.Int("status", status),
		slog.String("kind", kind.String()),
		slog.String("err", err.Error()))
	writeJSON(w, status, errorResponse{Error: errorJSON{
		Kind:      kind.String(),
		Message:   err.Error(),
		Pos:       pos,
		RequestID: id,
	}})
}

// writeJSON writes v as compact JSON, so an analyze response carries
// the cached ReportJSON bytes as they are.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeMetrics renders the stats snapshot in the Prometheus text
// exposition format (hand-rolled: no client library dependency). Every
// family is written, with or without samples, so the set of families
// is fixed; label values are span names, paths and outcomes.
func writeMetrics(w http.ResponseWriter, st Stats) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	family := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	family("regionwizd_requests_total", "counter",
		"Service calls by path and outcome: run, cache_hit, coalesced or ok, else the error kind.")
	for _, path := range sortedKeys(st.Outcomes) {
		for _, o := range sortedKeys(st.Outcomes[path]) {
			fmt.Fprintf(&b, "regionwizd_requests_total{path=%q,outcome=%q} %d\n", path, o, st.Outcomes[path][o])
		}
	}
	family("regionwizd_span_duration_seconds", "histogram", "Duration of each ended span, by span name.")
	for _, name := range sortedKeys(st.Histograms) {
		h := st.Histograms[name]
		var cum uint64
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			fmt.Fprintf(&b, "regionwizd_span_duration_seconds_bucket{span=%q,le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(&b, "regionwizd_span_duration_seconds_sum{span=%q} %g\n", name, h.Sum.Seconds())
		fmt.Fprintf(&b, "regionwizd_span_duration_seconds_count{span=%q} %d\n", name, h.Count)
	}
	family("regionwizd_span_alloc_bytes_total", "counter",
		"Bytes allocated process-wide while each phase span ran, including concurrent runs; small objects are counted per span-cache refill.")
	for _, name := range sortedKeys(st.AllocBytes) {
		fmt.Fprintf(&b, "regionwizd_span_alloc_bytes_total{span=%q} %d\n", name, st.AllocBytes[name])
	}
	for _, m := range []struct {
		name, typ, help string
		v               int64
	}{
		{"regionwizd_inflight", "gauge", "Pipeline runs executing now.", st.Inflight},
		{"regionwizd_queued", "gauge", "Requests waiting for a worker slot.", st.Queued},
		{"regionwizd_cache_entries", "gauge", "Result cache population.", int64(st.CacheEntries)},
		{"regionwizd_cache_evictions_total", "counter", "Cache entries evicted to make room.", int64(st.CacheEvictions)},
	} {
		family(m.name, m.typ, m.help)
		fmt.Fprintf(&b, "%s %d\n", m.name, m.v)
	}
	w.Write([]byte(b.String()))
}
