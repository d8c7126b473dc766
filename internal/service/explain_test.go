package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestServiceExplain covers explanations of cached results on both
// backends, the snapshot-gone and out-of-range failure modes, and the
// explain counters.
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

	st := s.Stats()
	if st.Warnings != 2 {
		t.Errorf("warnings_total = %d, want 2 (one per pipeline run)", st.Warnings)
	}
	// 4 served queries (the out-of-range one counts; the unknown key
	// never reached the explainer).
	if st.ExplainRequests != 4 {
		t.Errorf("explain_requests = %d, want 4", st.ExplainRequests)
	}
	if st.Histograms["explain"].Count == 0 {
		t.Error("explain histogram has no observations")
	}
}

// TestHTTPExplain is the endpoint round-trip: analyze, explain by key,
// and the snapshot-gone conflict. It also checks the request id lands
// in error bodies and the explain metrics reach /v1/metrics.
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
		RequestOptions{Backend: "bdd", BDDNodeSize: 1}))
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

	// Bad selector and missing key are config errors.
	if resp, _ = get(srv.URL + "/v1/explain?key=" + ar.Key + "&warning=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad selector: %d", resp.StatusCode)
	}
	if resp, _ = get(srv.URL + "/v1/explain"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing key: %d", resp.StatusCode)
	}

	resp, data = get(srv.URL + "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	if strings.Contains(text, "regionwizd_explain_replays_total") {
		t.Error("metrics still export regionwizd_explain_replays_total")
	}
	for _, want := range []string{
		"regionwizd_explain_requests_total 1",
		"regionwizd_warnings_total 1",
		"regionwizd_explain_duration_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHTTPProvenanceFieldIgnored keeps the wire compatible with clients
// that still send the retired "provenance" option: the daemon decodes
// with DisallowUnknownFields, so the field must stay accepted, and it
// must not change the result key.
func TestHTTPProvenanceFieldIgnored(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	keys := map[bool]string{}
	for _, provenance := range []bool{false, true} {
		opts := map[string]any{"api": "rc"}
		if provenance {
			opts["provenance"] = true
		}
		body, err := json.Marshal(map[string]any{"sources": sourcesFor(0), "options": opts})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postAnalyze(t, srv, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("provenance=%v: %d %s", provenance, resp.StatusCode, data)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		keys[provenance] = ar.Key
	}
	if keys[false] == "" || keys[false] != keys[true] {
		t.Errorf("key without provenance %q, with %q: want equal", keys[false], keys[true])
	}
}
