package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

func postAnalyze(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// getMetrics returns the /v1/metrics exposition.
func getMetrics(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d, %v", resp.StatusCode, err)
	}
	return string(data)
}

// wantMetrics fails the test unless each of lines is a whole line of
// the /v1/metrics exposition.
func wantMetrics(t *testing.T, srv *httptest.Server, lines ...string) {
	t.Helper()
	text := getMetrics(t, srv)
	for _, line := range lines {
		if !strings.Contains("\n"+text, "\n"+line+"\n") {
			t.Errorf("metrics lack the line %q:\n%s", line, text)
		}
	}
}

func analyzeBody(t *testing.T, sources map[string]string, opts RequestOptions) string {
	t.Helper()
	data, err := json.Marshal(Request{Sources: sources, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHTTPAnalyzeAndCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	body := analyzeBody(t, sourcesFor(0), RequestOptions{API: "rc"})

	resp, data := postAnalyze(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Regionwiz-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	var first AnalyzeResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if !strings.Contains(string(first.Report), core.ReportSchemaV1) {
		t.Errorf("report lacks schema marker %q", core.ReportSchemaV1)
	}

	resp, data = postAnalyze(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Regionwiz-Cache"); got != "hit" {
		t.Errorf("repeat cache header = %q, want hit", got)
	}
	var second AnalyzeResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Error("cached report JSON is not byte-identical to the fresh one")
	}
	if first.Key != second.Key || first.Key == "" {
		t.Errorf("keys: %q vs %q, want equal and non-empty", first.Key, second.Key)
	}
	// The response carries the cached report bytes unchanged, not a
	// re-indented copy.
	opts, err := RequestOptions{API: "rc"}.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), opts, sourcesFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Report, res.ReportJSON) {
		t.Errorf("response report is not Result.ReportJSON:\n%s\nvs\n%s", second.Report, res.ReportJSON)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"malformed json", "{", http.StatusBadRequest, "config"},
		{"unknown field", `{"sauces": {}}`, http.StatusBadRequest, "config"},
		{"no sources", `{"sources": {}}`, http.StatusBadRequest, "config"},
		{"bad api", analyzeBody(t, sourcesFor(0), RequestOptions{API: "jemalloc"}), http.StatusBadRequest, "config"},
		{"bad backend", analyzeBody(t, sourcesFor(0), RequestOptions{Backend: "quantum"}), http.StatusBadRequest, "config"},
		{"solver workers", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"solver_workers": 2}}`, http.StatusBadRequest, "config"},
		// The BDD kernel's GC, reorder and sizing options were removed;
		// old clients get a config error, not a silently ignored knob.
		{"removed bdd_gc", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"bdd_gc": true}}`, http.StatusBadRequest, "config"},
		{"removed bdd_gc_threshold", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"bdd_gc_threshold": 1}}`, http.StatusBadRequest, "config"},
		{"removed bdd_reorder", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"bdd_reorder": true}}`, http.StatusBadRequest, "config"},
		{"removed bdd_node_size", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"bdd_node_size": 65536}}`, http.StatusBadRequest, "config"},
		{"removed bdd_cache_ratio", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"bdd_cache_ratio": 2}}`, http.StatusBadRequest, "config"},
		// Solver.MaxRounds was removed with its wire option.
		{"removed solver_max_rounds", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"solver_max_rounds": 3}}`, http.StatusBadRequest, "config"},
		// The provenance option, ignored since explain trees are read
		// off the cached result, was removed too.
		{"removed provenance", `{"sources": {"a.c": "int main(void) { return 0; }"}, "options": {"provenance": true}}`, http.StatusBadRequest, "config"},
		{"negative kcfa", analyzeBody(t, sourcesFor(0), RequestOptions{KCFA: -1}), http.StatusBadRequest, "config"},
		{"unknown context_policy", analyzeBody(t, sourcesFor(0), RequestOptions{ContextPolicy: "2cfa"}), http.StatusBadRequest, "config"},
		{"parse error", analyzeBody(t, map[string]string{"x.c": "int main( {"}, RequestOptions{}), http.StatusUnprocessableEntity, "parse"},
		{"bad entry", analyzeBody(t, sourcesFor(0), RequestOptions{Entry: "nope"}), http.StatusUnprocessableEntity, "resolve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postAnalyze(t, srv, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("error body not JSON: %s", data)
			}
			if er.Error.Kind != tc.kind {
				t.Errorf("kind = %q, want %q", er.Error.Kind, tc.kind)
			}
		})
	}

	// Each endpoint answers a method it does not serve with 405 and
	// the methods it does.
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/v1/analyze", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPost, "/v1/metrics", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodPut, "/v1/stats", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodDelete, "/v1/healthz", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodHead, "/v1/metrics", http.StatusOK, ""},
		{http.MethodHead, "/v1/stats", http.StatusOK, ""},
		{http.MethodHead, "/v1/healthz", http.StatusOK, ""},
	} {
		t.Run(tc.method+strings.ReplaceAll(tc.path, "/", "_"), func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status || resp.Header.Get("Allow") != tc.allow {
				t.Errorf("status %d, Allow %q; want %d, %q", resp.StatusCode, resp.Header.Get("Allow"), tc.status, tc.allow)
			}
		})
	}
}

// TestHTTPDecodeEdgeBodies sends bodies at the edges of the one-pass
// decoder through the handler. Each must get the status, error kind and
// key that the same request decoded by encoding/json gets from a second
// service, and take the decoding path listed.
func TestHTTPDecodeEdgeBodies(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	ref := New(Config{Workers: 1})
	defer ref.Close()

	const main = "int main(void) { return 0; }"
	// json.Marshal writes <, > and & as \u003c, \u003e and \u0026.
	htmlC := map[string]string{"html.c": "int f(int a) { return a < 2 && a > 0 ? a & 1 : 0; }\n" + main}
	cases := []struct {
		name string
		body string
		fast bool
	}{
		{"html-escaped C", analyzeBody(t, htmlC, RequestOptions{}), true},
		{"surrogate pair", `{"sources":{"a.c":"/* \ud83d\ude00 */ ` + main + `"}}`, true},
		{"lone surrogate", `{"sources":{"a.c":"/* \ud800 */ ` + main + `"}}`, false},
		{"invalid UTF-8", "{\"sources\":{\"a.c\":\"/* \xff */ " + main + "\"}}", false},
		{"case-variant key", `{"Sources":{"a.c":"` + main + `"}}`, false},
		{"duplicate sources", `{"sources":{"a.c":"` + main + `"},"sources":{"b.c":"int g(void) { return 1; }"}}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			if _, fast, _ := decodeRequest(body); fast != tc.fast {
				t.Errorf("fast path = %v, want %v", fast, tc.fast)
			}
			want, err := referenceDecode(body)
			if err != nil {
				t.Fatalf("encoding/json rejects the body: %v", err)
			}
			opts, err := want.Options.ToOptions()
			if err != nil {
				t.Fatal(err)
			}
			wantStatus, wantKind, wantKey := http.StatusOK, "", Key(opts.Normalize(), want.Sources)
			if _, err := ref.Analyze(context.Background(), opts, want.Sources); err != nil {
				var aerr *core.Error
				if !errors.As(err, &aerr) {
					t.Fatalf("untyped reference error %v", err)
				}
				wantStatus, wantKind, wantKey = statusFor(err), aerr.Kind.String(), ""
			}

			resp, data := postAnalyze(t, srv, tc.body)
			if resp.StatusCode != wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, wantStatus, data)
			}
			if wantStatus != http.StatusOK {
				var er errorResponse
				if err := json.Unmarshal(data, &er); err != nil || er.Error.Kind != wantKind {
					t.Fatalf("error body %s, want kind %q", data, wantKind)
				}
				return
			}
			var ar AnalyzeResponse
			if err := json.Unmarshal(data, &ar); err != nil {
				t.Fatal(err)
			}
			if ar.Key != wantKey {
				t.Errorf("key = %s, want %s", ar.Key, wantKey)
			}
		})
	}

	// Over the size cap the body is refused before decoding, as the
	// streaming decoder refused it on reaching the cap.
	t.Run("over-limit body", func(t *testing.T) {
		prefix := `{"sources":{"a.c":"`
		body := io.MultiReader(strings.NewReader(prefix),
			io.LimitReader(zeros{}, maxRequestBody-int64(len(prefix))+1))
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", body))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("error body not JSON: %.200s", rec.Body.Bytes())
		}
		if rec.Code != http.StatusBadRequest || er.Error.Kind != "config" ||
			er.Error.Message != "bad request body: http: request body too large" {
			t.Errorf("status %d, error %+v; want 400, kind config, body too large", rec.Code, er.Error)
		}
	})
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestHTTPDeepNestingSurvives: a body nested a million parentheses
// deep used to overflow the goroutine stack, which kills the whole
// daemon. It must be a 422 parse error, and the same service must go on
// answering.
func TestHTTPDeepNestingSurvives(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	const n = 1_000_000
	deep := "int main(void) { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
	resp, data := postAnalyze(t, srv, analyzeBody(t, map[string]string{"deep.c": deep}, RequestOptions{}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deep body: status %d, want 422 (%.200s)", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body not JSON: %.200s", data)
	}
	if er.Error.Kind != "parse" {
		t.Errorf("kind = %q, want parse", er.Error.Kind)
	}

	resp, data = postAnalyze(t, srv, analyzeBody(t, sourcesFor(0), RequestOptions{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request after the deep one: status %d (%s)", resp.StatusCode, data)
	}
}

// TestHTTPTokenBudgetSurvives: a request whose files together lex to
// more tokens than one analysis may parse is a 422 parse error at the
// first token over budget — in the second file, which only the sum
// overspends — and the daemon serves the next request.
func TestHTTPTokenBudgetSurvives(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Each file is over half the budget: n empty statements are n
	// tokens, plus ten for the function around them.
	const n = 1_100_000
	body := func() string { return "int main(void) { " + strings.Repeat(";", n) + " return 0; }" }
	resp, data := postAnalyze(t, srv, analyzeBody(t, map[string]string{"a.c": body(), "b.c": body()}, RequestOptions{}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget body: status %d, want 422 (%.200s)", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body not JSON: %.200s", data)
	}
	if er.Error.Kind != "parse" || !strings.HasPrefix(er.Error.Pos, "b.c:1:") || !strings.Contains(er.Error.Message, "tokens") {
		t.Errorf("error %+v, want a parse error in b.c naming the token budget", er.Error)
	}

	resp, data = postAnalyze(t, srv, analyzeBody(t, sourcesFor(0), RequestOptions{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request after the over-budget one: status %d (%s)", resp.StatusCode, data)
	}
}

func TestHTTPHealthMetricsStats(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// One real analysis so the metrics have content.
	if _, data := postAnalyze(t, srv, analyzeBody(t, sourcesFor(0), RequestOptions{})); len(data) == 0 {
		t.Fatal("empty analyze response")
	}

	wantMetrics(t, srv,
		`regionwizd_requests_total{path="analyze",outcome="run"} 1`,
		`regionwizd_span_duration_seconds_count{span="service.analysis"} 1`,
		`regionwizd_span_duration_seconds_count{span="phase:parse"} 1`)

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 request / 1 miss", st)
	}
}
