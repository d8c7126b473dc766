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

// TestServiceExplain covers explanations of cached results on both
// backends, the snapshot-gone and out-of-range failure modes, and how
// each call is counted.
func TestServiceExplain(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	explicit, err := s.Analyze(ctx, core.Options{}, sourcesFor(0))
	if err != nil {
		t.Fatal(err)
	}
	bdd, err := s.Analyze(ctx, core.Options{Solver: core.SolverOptions{Backend: core.BDDBackend}}, sourcesFor(1))
	if err != nil {
		t.Fatal(err)
	}

	exp, err := s.Explain(ctx, explicit.Key, 0)
	if err != nil {
		t.Fatalf("explain explicit: %v", err)
	}
	bd, err := s.Explain(ctx, bdd.Key, 0)
	if err != nil {
		t.Fatalf("explain bdd: %v", err)
	}
	for name, res := range map[string]*ExplainResult{"explicit": exp, "bdd": bd} {
		if res.Warnings != 1 || len(res.Explanations) != 1 {
			t.Fatalf("%s: %d warnings, %d explanations, want 1/1", name, res.Warnings, len(res.Explanations))
		}
		if res.Explanations[0].Schema != core.ExplainSchemaV1 {
			t.Errorf("%s: schema %q", name, res.Explanations[0].Schema)
		}
	}
	// Single-warning selection returns the same tree as the full set.
	one, err := s.Explain(ctx, explicit.Key, 1)
	if err != nil {
		t.Fatalf("explain warning 1: %v", err)
	}
	if len(one.Explanations) != 1 || one.Explanations[0].Warning != 1 {
		t.Fatalf("warning selection returned %d explanations", len(one.Explanations))
	}
	a, _ := core.MarshalExplanations(one.Explanations)
	b, _ := core.MarshalExplanations(exp.Explanations)
	if !bytes.Equal(a, b) {
		t.Errorf("warning 1 alone differs from the full set:\n%s\n%s", a, b)
	}

	if _, err := s.Explain(ctx, explicit.Key, 99); err == nil {
		t.Error("out-of-range warning succeeded")
	}
	var aerr *core.Error
	if _, err := s.Explain(ctx, "deadbeef", 0); !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("unknown key error = %v, want snapshot-gone kind", err)
	}

	// Every call counts once, by outcome. Four reached the explainer
	// (the out-of-range one too); the unknown key did not.
	st := s.Stats()
	if want := map[string]uint64{"ok": 3, "config": 1, "snapshot_gone": 1}; !maps.Equal(st.Outcomes["explain"], want) {
		t.Errorf("explain outcomes = %v, want %v", st.Outcomes["explain"], want)
	}
	if n := st.Histograms["service.explain"].Count; n != 4 {
		t.Errorf("service.explain span count = %d, want 4", n)
	}
}

// TestHTTPExplain is the endpoint round-trip: analyze, explain by key,
// and the snapshot-gone conflict. It also checks the request id lands
// in error bodies and that /v1/metrics counts each explain call.
func TestHTTPExplain(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// The id middleware stands in for regionwizd's logging wrapper.
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		NewHandler(s).ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), "req-42")))
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, data := postAnalyze(t, srv, analyzeBody(t, sourcesFor(0),
		RequestOptions{Backend: "bdd"}))
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

	resp, data = get(srv.URL + "/v1/explain?key=" + ar.Key + "&warning=all")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %s", resp.StatusCode, data)
	}
	var er ExplainResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Schema != core.ExplainSchemaV1 || er.Key != ar.Key {
		t.Errorf("schema/key = %q/%q", er.Schema, er.Key)
	}
	if strings.Contains(string(data), `"replayed"`) {
		t.Errorf("explain response still carries the replayed field: %s", data)
	}
	if er.WarningsTotal != 1 || len(er.Explanations) != 1 {
		t.Fatalf("warnings_total=%d explanations=%d, want 1/1", er.WarningsTotal, len(er.Explanations))
	}
	if er.Explanations[0].Tree == nil {
		t.Fatal("explanation carries no tree")
	}

	// Unknown key: 409 snapshot_gone with the request id echoed.
	resp, data = get(srv.URL + "/v1/explain?key=" + strings.Repeat("0", 64))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unknown key: %d %s", resp.StatusCode, data)
	}
	var fail errorResponse
	if err := json.Unmarshal(data, &fail); err != nil {
		t.Fatal(err)
	}
	if fail.Error.Kind != "snapshot_gone" {
		t.Errorf("kind = %q, want snapshot_gone", fail.Error.Kind)
	}
	if fail.Error.RequestID != "req-42" {
		t.Errorf("request_id = %q, want req-42", fail.Error.RequestID)
	}
	wantMetrics(t, srv,
		`regionwizd_requests_total{path="explain",outcome="ok"} 1`,
		`regionwizd_requests_total{path="explain",outcome="snapshot_gone"} 1`)

	// Bad selector and missing key are config errors.
	if resp, _ = get(srv.URL + "/v1/explain?key=" + ar.Key + "&warning=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad selector: %d", resp.StatusCode)
	}
	if resp, _ = get(srv.URL + "/v1/explain"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing key: %d", resp.StatusCode)
	}

	// The 400s above never reached the service, so they count nowhere.
	wantMetrics(t, srv,
		`regionwizd_requests_total{path="explain",outcome="ok"} 1`,
		`regionwizd_requests_total{path="explain",outcome="snapshot_gone"} 1`,
		`regionwizd_span_duration_seconds_count{span="service.explain"} 1`)
	if text := getMetrics(t, srv); strings.Contains(text, `path="explain",outcome="config"`) {
		t.Errorf("a handler-level 400 was counted as an explain call:\n%s", text)
	}
}
