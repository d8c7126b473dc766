package service

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestMetricsExposeLatencyHistograms(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	if resp, data := postAnalyze(t, srv, analyzeBody(t, sourcesFor(0), RequestOptions{})); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, data)
	}

	text := getMetrics(t, srv)
	for _, want := range []string{
		"# TYPE regionwizd_span_duration_seconds histogram",
		`regionwizd_span_duration_seconds_bucket{span="service.request",le="5e-05"} `,
		`regionwizd_span_duration_seconds_bucket{span="service.request",le="+Inf"} 1`,
		`regionwizd_span_duration_seconds_sum{span="service.request"} `,
		`regionwizd_span_duration_seconds_count{span="service.request"} 1`,
		`regionwizd_span_duration_seconds_bucket{span="phase:parse",le="+Inf"} 1`,
		`regionwizd_span_duration_seconds_count{span="phase:parse"} 1`,
		`regionwizd_span_alloc_bytes_total{span="phase:parse"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// Bucket counts must be cumulative and end at _count.
	var st Stats
	stResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	hs, ok := st.Histograms["service.request"]
	if !ok {
		t.Fatal("stats lack the service.request histogram")
	}
	if hs.Count != 1 || len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("service.request histogram shape: count=%d buckets=%d bounds=%d",
			hs.Count, len(hs.Counts), len(hs.Bounds))
	}
	var total uint64
	for _, c := range hs.Counts {
		total += c
	}
	if total != hs.Count {
		t.Fatalf("bucket sum %d != count %d", total, hs.Count)
	}
}

// spanCounts parses the span histogram's _count series out of a
// /v1/metrics exposition, by span label.
func spanCounts(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	const prefix = `regionwizd_span_duration_seconds_count{span="`
	counts := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		name, n, ok := strings.Cut(rest, `"} `)
		v, err := strconv.ParseUint(n, 10, 64)
		if !ok || err != nil {
			t.Fatalf("bad count line %q", line)
		}
		counts[name] = v
	}
	return counts
}

// TestMetricsDerivedFromSpans pins what the span histogram is: one
// observation per ended span the service opens. Over a traced cold
// request, a traced hit and a traced delta, each span label's count
// equals the number of spans of that name in the returned traces whose
// names start with "http.", "service." or "phase:", and no other label
// appears. An explain and a query then add their spans, and nothing
// else.
func TestMetricsDerivedFromSpans(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	traced := func(req Request) AnalyzeResponse {
		t.Helper()
		req.Trace = true
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postAnalyze(t, srv, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}
	sources := sourcesFor(0)
	cold := traced(Request{Sources: sources})
	hot := traced(Request{Sources: sources})
	delta := traced(Request{Base: cold.Key, Changed: map[string]string{"extra.c": "int unused_helper(void) { return 2; }\n"}})
	if cold.Cached || !hot.Cached || delta.Cached {
		t.Fatalf("cached cold/hot/delta = %v/%v/%v, want false/true/false", cold.Cached, hot.Cached, delta.Cached)
	}

	want := map[string]uint64{}
	for _, raw := range []json.RawMessage{cold.Trace, hot.Trace, delta.Trace} {
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && (strings.HasPrefix(ev.Name, "http.") ||
				strings.HasPrefix(ev.Name, "service.") || strings.HasPrefix(ev.Name, "phase:")) {
				want[ev.Name]++
			}
		}
	}
	for _, name := range []string{"http.request", "http.decode", "service.key", "service.base", "service.analysis", "phase:parse"} {
		if want[name] == 0 {
			t.Fatalf("the traces hold no %q span: %v", name, want)
		}
	}
	if got := spanCounts(t, getMetrics(t, srv)); !maps.Equal(got, want) {
		t.Fatalf("span histogram counts %v,\nspans in the traces %v", got, want)
	}

	src, dst := querySites(t, sources)
	if _, err := s.Explain(context.Background(), cold.Key, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), cold.Key, src, dst); err != nil {
		t.Fatal(err)
	}
	want["service.explain"]++
	want["service.query"]++
	if got := spanCounts(t, getMetrics(t, srv)); !maps.Equal(got, want) {
		t.Fatalf("after explain and query: span histogram counts %v, want %v", got, want)
	}
}

// TestMetricsFamiliesDocumented: after every request path — a run, a
// hit, a BDD run, a delta, a failure, an explain and a query — the
// families /v1/metrics serves are exactly the regionwizd_* families
// README documents.
func TestMetricsFamiliesDocumented(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	sources := sourcesFor(0)
	var ar AnalyzeResponse
	for _, body := range []string{
		analyzeBody(t, sources, RequestOptions{}),
		analyzeBody(t, sources, RequestOptions{}),
		analyzeBody(t, sources, RequestOptions{Backend: "bdd"}),
		analyzeBody(t, map[string]string{"x.c": "int main( {"}, RequestOptions{}),
	} {
		resp, data := postAnalyze(t, srv, body)
		if resp.StatusCode == http.StatusOK && ar.Key == "" {
			if err := json.Unmarshal(data, &ar); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta, err := json.Marshal(Request{Base: ar.Key, Changed: map[string]string{"extra.c": "int h(void) { return 1; }\n"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postAnalyze(t, srv, string(delta)); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, data)
	}
	src, dst := querySites(t, sources)
	for _, url := range []string{
		srv.URL + "/v1/explain?key=" + ar.Key,
		srv.URL + "/v1/query?key=" + ar.Key + "&src=" + src + "&dst=" + dst,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", url, resp.StatusCode)
		}
	}

	served := map[string]bool{}
	for _, line := range strings.Split(getMetrics(t, srv), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			served[f[2]] = true
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`regionwizd_[a-z_]+`).FindAllString(string(readme), -1) {
		documented[name] = true
	}
	for name := range served {
		if !documented[name] {
			t.Errorf("served family %s is not documented in README", name)
		}
	}
	for name := range documented {
		if !served[name] {
			t.Errorf("README documents %s, which is not served", name)
		}
	}
	if len(served) != 7 {
		t.Errorf("served %d families, want 7: %v", len(served), served)
	}
}

func TestWireTraceOption(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	plainBody := analyzeBody(t, sourcesFor(0), RequestOptions{})
	tracedBody := strings.TrimSuffix(plainBody, "}") + `,"trace":true}`

	resp, data := postAnalyze(t, srv, tracedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced analyze status %d: %s", resp.StatusCode, data)
	}
	var traced AnalyzeResponse
	if err := json.Unmarshal(data, &traced); err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 {
		t.Fatal(`"trace": true returned no trace document`)
	}
	var doc struct {
		Schema      string `json:"schema"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traced.Trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Schema != trace.SchemaV1 {
		t.Fatalf("trace schema = %q, want %q", doc.Schema, trace.SchemaV1)
	}
	want := map[string]bool{"service.request": false, "service.analysis": false, "http.request": false}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace lacks a %q span", name)
		}
	}

	// Same request without the option: no trace, identical report
	// bytes (the cache may serve it — the report is content-addressed
	// either way).
	resp, data = postAnalyze(t, srv, plainBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain analyze status %d: %s", resp.StatusCode, data)
	}
	var plain AnalyzeResponse
	if err := json.Unmarshal(data, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != 0 {
		t.Fatal("untraced request returned a trace document")
	}
	if plain.Key != traced.Key {
		t.Fatalf("trace option changed the cache key: %q vs %q", plain.Key, traced.Key)
	}
	if !bytes.Equal(plain.Report, traced.Report) {
		t.Fatal("report bytes differ between traced and untraced requests")
	}
}

// traceSpan is one complete span of a Chrome trace document; dup marks
// a name recorded more than once.
type traceSpan struct {
	id, parent float64
	ts, end    float64
	args       map[string]any
	dup        bool
}

// traceSpans indexes a trace document's complete spans by name.
func traceSpans(t *testing.T, raw json.RawMessage) map[string]traceSpan {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]traceSpan{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if sp, dup := spans[ev.Name]; dup {
			sp.dup = true
			spans[ev.Name] = sp
			continue
		}
		parent, _ := ev.Args["parent_span"].(float64)
		spans[ev.Name] = traceSpan{ev.Args["span_id"].(float64), parent, ev.Ts, ev.Ts + ev.Dur, ev.Args, false}
	}
	return spans
}

// checkNesting fails the test unless each child span, recorded once,
// lies inside its parent, recorded once, and names it as its parent.
func checkNesting(t *testing.T, spans map[string]traceSpan, raw json.RawMessage, parentOf map[string]string) {
	t.Helper()
	for child, parent := range parentOf {
		c, ok := spans[child]
		p, pok := spans[parent]
		if !ok || !pok {
			t.Fatalf("trace lacks %q or %q: %s", child, parent, raw)
		}
		if c.dup || p.dup {
			t.Fatalf("%q or %q recorded twice: %s", child, parent, raw)
		}
		if c.parent != p.id || c.ts < p.ts || c.end > p.end {
			t.Errorf("%q [%g, %g] parent %g is not under %q [%g, %g] id %g",
				child, c.ts, c.end, c.parent, parent, p.ts, p.end, p.id)
		}
	}
}

// TestTracedHotRequestSpans: a traced cache hit's trace holds the body
// decode under the HTTP request span and the keying under the service
// request span, and tracing leaves the report bytes as they were. A
// traced delta against the hit's key adds the base lookup under the
// service request span, with the delta's file counts.
func TestTracedHotRequestSpans(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	plainBody := analyzeBody(t, sourcesFor(0), RequestOptions{})
	tracedBody := strings.TrimSuffix(plainBody, "}") + `,"trace":true}`
	var plain, traced AnalyzeResponse
	for _, r := range []struct {
		body string
		into *AnalyzeResponse
	}{{plainBody, &plain}, {tracedBody, &traced}} {
		resp, data := postAnalyze(t, srv, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, r.into); err != nil {
			t.Fatal(err)
		}
	}
	if !traced.Cached {
		t.Fatal("the traced repeat was not a cache hit")
	}
	if !bytes.Equal(plain.Report, traced.Report) {
		t.Fatal("report bytes differ between the untraced and the traced request")
	}

	spans := traceSpans(t, traced.Trace)
	checkNesting(t, spans, traced.Trace, map[string]string{
		"http.decode":     "http.request",
		"service.request": "http.request",
		"service.key":     "service.request",
	})
	dec := spans["http.decode"]
	if dec.ts != spans["http.request"].ts {
		t.Errorf("http.decode starts at %g, not with the request at %g", dec.ts, spans["http.request"].ts)
	}
	if dec.args["body_bytes"] != float64(len(tracedBody)) || dec.args["path"] != "fast" {
		t.Errorf("http.decode attributes %v, want body_bytes %d and path fast", dec.args, len(tracedBody))
	}
	if _, ok := spans["service.base"]; ok {
		t.Error("a full request recorded a service.base span")
	}

	deltaBody, err := json.Marshal(Request{
		Base:    traced.Key,
		Changed: map[string]string{"extra.c": "int unused_helper(void) { return 2; }\n"},
		Removed: []string{"absent.c"},
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postAnalyze(t, srv, string(deltaBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, data)
	}
	var delta AnalyzeResponse
	if err := json.Unmarshal(data, &delta); err != nil {
		t.Fatal(err)
	}
	spans = traceSpans(t, delta.Trace)
	checkNesting(t, spans, delta.Trace, map[string]string{
		"service.request": "http.request",
		"service.base":    "service.request",
		"service.key":     "service.request",
	})
	if base, key := spans["service.base"], spans["service.key"]; base.end > key.ts {
		t.Errorf("service.base [%g, %g] does not end before service.key starts at %g", base.ts, base.end, key.ts)
	}
	for attr, want := range map[string]float64{"files_reused": 1, "files_changed": 1, "files_removed": 0} {
		if got := spans["service.base"].args[attr]; got != want {
			t.Errorf("service.base %s = %v, want %g", attr, got, want)
		}
	}
}

func TestRequestIDReachesTraceSpans(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Fatalf("RequestID roundtrip = %q", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on empty context = %q, want empty", got)
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	// The daemon's middleware injects the ID before the handler; the
	// handler must attach it to the root span of a traced request.
	handler := NewHandler(s)
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), "req-42")))
	})
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	body := strings.TrimSuffix(analyzeBody(t, sourcesFor(1), RequestOptions{}), "}") + `,"trace":true}`
	resp, data := postAnalyze(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(ar.Trace, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Args["request_id"] == "req-42" {
			return
		}
	}
	t.Fatalf("trace lacks the request_id attribute:\n%s", ar.Trace)
}
