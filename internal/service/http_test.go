package service

import (
	"bytes"
	"encoding/json"
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
		{"negative kcfa", analyzeBody(t, sourcesFor(0), RequestOptions{KCFA: -1}), http.StatusBadRequest, "config"},
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

	resp, err := http.Get(srv.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze status = %d, want 405", resp.StatusCode)
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

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"regionwizd_requests_total 1",
		"regionwizd_cache_misses_total 1",
		`regionwizd_phase_runs_total{phase="parse"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

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
