package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"

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
// "regionwiz/delta/v1"): how the base snapshot plus the request's
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
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, s.Stats())
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func handleAnalyze(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(r.Context(), w, http.StatusMethodNotAllowed,
			core.Errf(core.ErrConfig, "", "analyze wants POST, got %s", r.Method))
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(r.Context(), w, http.StatusBadRequest,
			core.Errf(core.ErrConfig, "", "bad request body: %v", err))
		return
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		writeError(r.Context(), w, statusFor(err), err)
		return
	}
	ctx := r.Context()
	var tr *trace.Tracer
	var root *trace.Span
	if req.Trace {
		tr = trace.New()
		ctx = trace.WithTracer(ctx, tr)
		ctx, root = trace.StartSpan(ctx, "http.request")
		if id := RequestID(ctx); id != "" {
			root.Attrs(trace.Str("request_id", id))
		}
	}
	var res *Result
	if req.Base != "" {
		if len(req.Sources) > 0 {
			root.End(trace.Bool("error", true))
			writeError(ctx, w, http.StatusBadRequest, core.Errf(core.ErrConfig, "",
				"a delta request (base set) must not also carry full sources"))
			return
		}
		res, err = s.AnalyzeDelta(ctx, opts, req.Base, req.Changed, req.Removed)
	} else {
		if len(req.Changed) > 0 || len(req.Removed) > 0 {
			root.End(trace.Bool("error", true))
			writeError(ctx, w, http.StatusBadRequest, core.Errf(core.ErrConfig, "",
				"changed/removed require a base snapshot key"))
			return
		}
		res, err = s.Analyze(ctx, opts, req.Sources)
	}
	root.End(trace.Bool("error", err != nil))
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

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeMetrics renders the stats snapshot in the Prometheus text
// exposition format (hand-rolled: no client library dependency).
func writeMetrics(w http.ResponseWriter, st Stats) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var sb strings.Builder
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name string, v int64, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("regionwizd_requests_total", st.Requests, "Analyze requests received.")
	counter("regionwizd_cache_hits_total", st.Hits, "Requests served from the result cache.")
	counter("regionwizd_coalesced_total", st.Coalesced, "Requests coalesced onto an identical in-flight run.")
	counter("regionwizd_cache_misses_total", st.Misses, "Requests that ran the pipeline.")
	counter("regionwizd_overloads_total", st.Overloads, "Requests rejected by admission control.")
	counter("regionwizd_errors_total", st.Errors, "Failed requests, overloads included.")
	counter("regionwizd_cache_evictions_total", st.CacheEvictions, "Cache entries evicted to make room.")
	counter("regionwizd_delta_requests_total", st.DeltaRequests, "Requests that named a base snapshot.")
	counter("regionwizd_snapshot_hits_total", st.SnapshotHits, "Delta requests whose base snapshot was held.")
	counter("regionwizd_snapshot_gone_total", st.SnapshotGone, "Delta requests rejected because the base snapshot was gone.")
	counter("regionwizd_snapshot_evictions_total", st.SnapshotEvictions, "Snapshots evicted to make room.")
	counter("regionwizd_frontend_files_reused_total", st.FrontendFilesReused, "Source files whose front-end artifacts were reused.")
	counter("regionwizd_frontend_files_rerun_total", st.FrontendFilesRerun, "Source files re-parsed by snapshot-backed runs.")
	counter("regionwizd_queue_waits_total", st.QueueWaits, "Requests that waited in the admission queue.")
	counter("regionwizd_warnings_total", st.Warnings, "Warnings reported across every pipeline run.")
	counter("regionwizd_explain_requests_total", st.ExplainRequests, "Provenance (explain) queries served.")
	counter("regionwizd_query_requests_total", st.QueryRequests, "Demand pair queries served.")
	counter("regionwizd_query_inconsistent_total", st.QueryInconsistent, "Demand pair queries with an inconsistent verdict.")
	gauge("regionwizd_inflight", st.Inflight, "Pipeline runs executing now.")
	gauge("regionwizd_queued", st.Queued, "Requests waiting for a worker slot.")
	gauge("regionwizd_cache_entries", int64(st.CacheEntries), "Result cache population.")
	gauge("regionwizd_snapshot_entries", int64(st.SnapshotEntries), "Snapshot store population.")
	fmt.Fprintf(&sb, "# HELP regionwizd_queue_wait_seconds_total Cumulative admission queue wait.\n# TYPE regionwizd_queue_wait_seconds_total counter\nregionwizd_queue_wait_seconds_total %g\n",
		st.QueueWait.Seconds())
	names := make([]string, 0, len(st.Phases))
	for name := range st.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		sb.WriteString("# HELP regionwizd_phase_runs_total Pipeline phase executions.\n# TYPE regionwizd_phase_runs_total counter\n")
		for _, name := range names {
			fmt.Fprintf(&sb, "regionwizd_phase_runs_total{phase=%q} %d\n", name, st.Phases[name].Runs)
		}
		sb.WriteString("# HELP regionwizd_phase_wall_seconds_total Cumulative phase wall time.\n# TYPE regionwizd_phase_wall_seconds_total counter\n")
		for _, name := range names {
			fmt.Fprintf(&sb, "regionwizd_phase_wall_seconds_total{phase=%q} %g\n", name, st.Phases[name].Wall.Seconds())
		}
		sb.WriteString("# HELP regionwizd_phase_alloc_bytes_total Cumulative phase allocation.\n# TYPE regionwizd_phase_alloc_bytes_total counter\n")
		for _, name := range names {
			fmt.Fprintf(&sb, "regionwizd_phase_alloc_bytes_total{phase=%q} %d\n", name, st.Phases[name].AllocBytes)
		}
	}
	if len(st.BDDOutputs) > 0 {
		keys := make([]string, 0, len(st.BDDOutputs))
		for k := range st.BDDOutputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			// bdd_cache_hits -> regionwizd_bdd_cache_hits_total etc.;
			// cumulative over every bdd-backend pipeline run.
			counter("regionwizd_"+k+"_total", uint64(st.BDDOutputs[k]),
				"Cumulative BDD kernel counter from the pairs phase.")
		}
	}
	writeHistogram(&sb, "regionwizd_analyze_duration_seconds",
		"End-to-end Analyze latency, all outcomes.", "", st.Histograms["analyze"])
	writeHistogram(&sb, "regionwizd_queue_wait_seconds",
		"Admission queue wait of queued requests.", "", st.Histograms["queue_wait"])
	writeHistogram(&sb, "regionwizd_explain_duration_seconds",
		"Explain (provenance) query latency.", "", st.Histograms["explain"])
	writeHistogram(&sb, "regionwizd_query_duration_seconds",
		"Demand pair query latency.", "", st.Histograms["query"])
	hnames := make([]string, 0, len(st.Histograms))
	for name := range st.Histograms {
		if strings.HasPrefix(name, "phase:") {
			hnames = append(hnames, name)
		}
	}
	sort.Strings(hnames)
	for i, name := range hnames {
		help := ""
		if i == 0 {
			help = "Pipeline phase duration."
		}
		writeHistogram(&sb, "regionwizd_phase_duration_seconds", help,
			fmt.Sprintf("phase=%q", strings.TrimPrefix(name, "phase:")), st.Histograms[name])
	}
	w.Write([]byte(sb.String()))
}

// writeHistogram renders one histogram in Prometheus exposition form:
// cumulative le-labelled buckets, then _sum and _count. A histogram
// with no observations is skipped entirely (its series would be all
// zeros). labels, when non-empty, is spliced into every series.
func writeHistogram(sb *strings.Builder, name, help, labels string, h HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	if help != "" {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(sb, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, bound, cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(sb, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels != "" {
		fmt.Fprintf(sb, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum.Seconds(), name, labels, h.Count)
	} else {
		fmt.Fprintf(sb, "%s_sum %g\n%s_count %d\n", name, h.Sum.Seconds(), name, h.Count)
	}
}
