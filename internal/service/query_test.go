package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// querySites resolves the fixture's single warning to its allocation
// site pair via a direct core run over the same sources.
func querySites(t *testing.T, sources map[string]string) (src, dst string) {
	t.Helper()
	a, err := core.AnalyzeSource(core.Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	sites := a.PairSites()
	if len(sites) == 0 {
		t.Fatal("fixture reports no warnings")
	}
	return sites[0].Src.String(), sites[0].Dst.String()
}

// TestServiceQuery covers the demand pair-query path against a cached
// result: the positive verdict, the consistent reverse probe, the
// snapshot-gone and bad-input failure modes, and how each call is
// counted.
func TestServiceQuery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	sources := sourcesFor(0)
	src, dst := querySites(t, sources)
	res, err := s.Analyze(ctx, core.Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}

	ans, err := s.Query(ctx, res.Key, src, dst)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !ans.Answer.Inconsistent {
		t.Errorf("query %s -> %s consistent but the report warns", src, dst)
	}
	rev, err := s.Query(ctx, res.Key, dst, src)
	if err != nil {
		t.Fatalf("reverse query: %v", err)
	}
	if rev.Answer.Inconsistent {
		t.Error("reverse probe inconsistent; the report has no such warning")
	}

	var aerr *core.Error
	if _, err := s.Query(ctx, strings.Repeat("0", 64), src, dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("unknown key error = %v, want snapshot-gone kind", err)
	}
	if _, err := s.Query(ctx, res.Key, "prog0.c:9999", dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrResolve {
		t.Errorf("unknown site error = %v, want resolve kind", err)
	}
	if _, err := s.Query(ctx, res.Key, "nonsense", dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrConfig {
		t.Errorf("malformed site error = %v, want config kind", err)
	}

	// Every call counts once, by outcome. The unknown key failed
	// before reaching a cached analysis; the other four queried one.
	st := s.Stats()
	if want := map[string]uint64{"ok": 2, "snapshot_gone": 1, "resolve": 1, "config": 1}; !maps.Equal(st.Outcomes["query"], want) {
		t.Errorf("query outcomes = %v, want %v", st.Outcomes["query"], want)
	}
	if n := st.Histograms["service.query"].Count; n != 4 {
		t.Errorf("service.query span count = %d, want 4", n)
	}
}

// TestHTTPQuery is the /v1/query endpoint round-trip plus its status
// mapping, and the request counter after each failure.
func TestHTTPQuery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	sources := sourcesFor(0)
	src, dst := querySites(t, sources)
	resp, data := postAnalyze(t, srv, analyzeBody(t, sources, RequestOptions{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, data = get(srv.URL + "/v1/query?key=" + ar.Key + "&src=" + src + "&dst=" + dst)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Schema != core.QuerySchemaV1 || qr.Key != ar.Key {
		t.Errorf("schema/key = %q/%q", qr.Schema, qr.Key)
	}
	if qr.Answer == nil || !qr.Answer.Inconsistent || qr.Answer.Pairs == 0 {
		t.Fatalf("answer = %+v, want inconsistent with object pairs", qr.Answer)
	}

	for _, tc := range []struct {
		name   string
		url    string
		want   int
		metric string // the counter line after the request
	}{
		{"unknown key", srv.URL + "/v1/query?key=" + strings.Repeat("0", 64) + "&src=" + src + "&dst=" + dst, http.StatusConflict,
			`regionwizd_requests_total{path="query",outcome="snapshot_gone"} 1`},
		{"unknown site", srv.URL + "/v1/query?key=" + ar.Key + "&src=prog0.c:9999&dst=" + dst, http.StatusUnprocessableEntity,
			`regionwizd_requests_total{path="query",outcome="resolve"} 1`},
		{"malformed site", srv.URL + "/v1/query?key=" + ar.Key + "&src=nonsense&dst=" + dst, http.StatusBadRequest,
			`regionwizd_requests_total{path="query",outcome="config"} 1`},
		// Missing parameters are refused before the service is called.
		{"missing params", srv.URL + "/v1/query?key=" + ar.Key, http.StatusBadRequest,
			`regionwizd_requests_total{path="query",outcome="config"} 1`},
	} {
		if resp, data = get(tc.url); resp.StatusCode != tc.want {
			t.Errorf("%s: %d (want %d) %s", tc.name, resp.StatusCode, tc.want, data)
		}
		wantMetrics(t, srv, tc.metric)
	}
	if resp, err := http.Post(srv.URL+"/v1/query", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: %d, want 405", resp.StatusCode)
	}

	wantMetrics(t, srv,
		`regionwizd_requests_total{path="query",outcome="ok"} 1`,
		`regionwizd_span_duration_seconds_count{span="service.query"} 3`)
}

// TestWireThrottleOptions: the throttle wire options must round-trip
// into core options. An unknown context_policy is rejected by
// Options.Validate (TestHTTPErrors).
func TestWireThrottleOptions(t *testing.T) {
	opts, err := RequestOptions{ContextPolicy: "origin", PtsLimit: 3}.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.ContextPolicy != core.PolicyOrigin || opts.Solver.PtsLimit != 3 {
		t.Errorf("wire options did not carry: policy=%q pts_limit=%d", opts.ContextPolicy, opts.Solver.PtsLimit)
	}
}
