package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// deltaSources is a two-file program whose main.c body is
// parameterized, so edits leave lib.c untouched.
func deltaSources(body string) map[string]string {
	return map[string]string{
		"lib.c": `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *mkconn(region_t *r) {
    struct conn_t *c;
    c = ralloc(r);
    return c;
}
void conn_link(struct conn_t *x, struct conn_t *y) {
    x->next = y;
}`,
		"main.c": `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
struct conn_t;
extern struct conn_t *mkconn(region_t *r);
extern void conn_link(struct conn_t *x, struct conn_t *y);
int main(void) {
    region_t *r;
    region_t *subr;
    struct conn_t *a;
    struct conn_t *b;
    r = rnew(NULL);
    subr = rnew(r);
    a = mkconn(r);
    b = mkconn(subr);
` + body + `
    return 0;
}`,
	}
}

// stripVolatile removes the wall-clock and per-phase stats from a
// report, leaving everything an incremental run must reproduce
// byte-for-byte (phase outputs legitimately differ: the delta run
// reports reuse counters a cold run does not have).
func stripVolatile(t *testing.T, report []byte) string {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(report, &m); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	stats := m["stats"].(map[string]interface{})
	delete(stats, "time_ms")
	delete(stats, "phases")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestDeltaAnalyze(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	full, err := s.Analyze(ctx, core.Options{}, deltaSources("conn_link(a, b);"))
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta != nil {
		t.Fatal("full request carries a delta block")
	}

	edited := deltaSources("conn_link(b, a);")
	inc, err := s.AnalyzeDelta(ctx, core.Options{}, full.Key,
		map[string]string{"main.c": edited["main.c"]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Delta == nil {
		t.Fatal("delta request returned no delta block")
	}
	if d := inc.Delta; d.Base != full.Key || d.FilesReused != 1 || d.FilesChanged != 1 || d.FilesRemoved != 0 {
		t.Fatalf("delta info = %+v, want base=%s reused=1 changed=1 removed=0", d, full.Key)
	}
	if inc.Analysis == nil || inc.Analysis.Front.ParseReused != 1 {
		t.Fatalf("delta run did not reuse lib.c's parse: %+v", inc.Analysis.Front)
	}

	// The delta run must match a from-scratch analysis of the same
	// final sources, computed on an independent service so the shared
	// cache key cannot short-circuit the comparison.
	s2 := New(Config{Workers: 1})
	defer s2.Close()
	scratch, err := s2.Analyze(ctx, core.Options{}, edited)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Key != scratch.Key {
		t.Fatalf("delta key %s differs from the equivalent full request's %s", inc.Key, scratch.Key)
	}
	if got, want := stripVolatile(t, inc.ReportJSON), stripVolatile(t, scratch.ReportJSON); got != want {
		t.Fatalf("delta report differs from from-scratch:\n%s\nvs\n%s", got, want)
	}

	// Chaining: the delta response's key is itself a usable base.
	back, err := s.AnalyzeDelta(ctx, core.Options{}, inc.Key,
		map[string]string{"main.c": deltaSources("conn_link(a, b);")["main.c"]}, nil)
	if err != nil {
		t.Fatalf("chained delta: %v", err)
	}
	if !back.Cached {
		t.Fatal("chained delta back to the original sources missed the result cache")
	}
	if back.Delta == nil || back.Delta.Base != inc.Key {
		t.Fatalf("cached delta response lost its delta block: %+v", back.Delta)
	}

	st := s.Stats()
	if got := st.Outcomes["delta"]; len(got) != 2 || got["run"] != 1 || got["cache_hit"] != 1 {
		t.Fatalf("delta outcomes = %v, want one run and one cache_hit", got)
	}
	if n := st.Histograms["service.base"].Count; n != 2 {
		t.Fatalf("service.base span count = %d, want 2", n)
	}
	if st.CacheEntries == 0 {
		t.Fatal("result cache empty after successful runs")
	}
}

func TestDeltaUnknownBaseGone(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	_, err := s.AnalyzeDelta(context.Background(), core.Options{},
		strings.Repeat("ab", 32), map[string]string{"x.c": "int main(void) { return 0; }"}, nil)
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Fatalf("err = %v, want snapshot_gone Error", err)
	}
	if got := s.Stats().Outcomes["delta"]["snapshot_gone"]; got != 1 {
		t.Fatalf("delta snapshot_gone outcomes = %d, want 1", got)
	}
}

func TestDeltaOptionMismatch(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	full, err := s.Analyze(ctx, core.Options{}, deltaSources("conn_link(a, b);"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.AnalyzeDelta(ctx, core.Options{ContextCap: 1}, full.Key, nil, nil)
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrConfig {
		t.Fatalf("err = %v, want config Error for option mismatch", err)
	}
}

func TestDeltaDisabledSnapshots(t *testing.T) {
	// CacheEntries < 0 disables the result cache, which is also the
	// store of delta bases: every delta is gone.
	s := New(Config{Workers: 1, CacheEntries: -1})
	defer s.Close()
	ctx := context.Background()
	full, err := s.Analyze(ctx, core.Options{}, deltaSources("conn_link(a, b);"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.AnalyzeDelta(ctx, core.Options{}, full.Key, nil, nil)
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Fatalf("err = %v, want snapshot_gone when the cache is disabled", err)
	}
}

// TestDeltaFileCounts: the delta block counts what the request did to
// the base's source set, not the lengths of its lists.
func TestDeltaFileCounts(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	sources := deltaSources("conn_link(a, b);")
	sources["extra.c"] = "int unused_helper(void) { return 2; }\n"
	full, err := s.Analyze(ctx, core.Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	edited := "int unused_helper(void) { return 3; }\n"
	for _, tc := range []struct {
		name                       string
		changed                    map[string]string
		removed                    []string
		reused, nchanged, nremoved int
	}{
		{"remove one file", nil, []string{"extra.c"}, 2, 0, 1},
		{"edit one file", map[string]string{"extra.c": edited}, nil, 2, 1, 0},
		{"add one file", map[string]string{"new.c": "int new_helper(void) { return 4; }\n"}, nil, 3, 1, 0},
		{"remove a path the base lacks", nil, []string{"absent.c"}, 3, 0, 0},
		{"remove a path twice", nil, []string{"extra.c", "extra.c"}, 2, 0, 1},
		{"remove and change one path", map[string]string{"extra.c": edited}, []string{"extra.c"}, 2, 1, 0},
		{"list a path with its base content", map[string]string{"extra.c": sources["extra.c"]}, nil, 3, 0, 0},
		{"list a base path and add one", map[string]string{
			"extra.c": sources["extra.c"],
			"more.c":  "int more_helper(void) { return 5; }\n",
		}, nil, 3, 1, 0},
	} {
		res, err := s.AnalyzeDelta(ctx, core.Options{}, full.Key, tc.changed, tc.removed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := res.Delta
		if d.FilesReused != tc.reused || d.FilesChanged != tc.nchanged || d.FilesRemoved != tc.nremoved {
			t.Errorf("%s: reused/changed/removed = %d/%d/%d, want %d/%d/%d", tc.name,
				d.FilesReused, d.FilesChanged, d.FilesRemoved, tc.reused, tc.nchanged, tc.nremoved)
		}
		if res.Cached || res.Coalesced {
			continue
		}
		// This request ran the pipeline against full: its parse phase
		// must split the files as the delta block does.
		parse := res.Analysis.Report.Stats.Phases[0]
		if parse.Name != core.PhaseParse ||
			parse.Outputs["parse_files_reused"] != int64(d.FilesReused) ||
			parse.Outputs["parse_files_parsed"] != int64(d.FilesChanged) {
			t.Errorf("%s: delta block reused/changed %d/%d, run's %s outputs %v", tc.name,
				d.FilesReused, d.FilesChanged, parse.Name, parse.Outputs)
		}
	}
}

// TestDeltaKeysShareTheResultCache: a delta response's key is a delta
// base and an explain/query key like any other, and once it is
// evicted from the result cache all three requests fail alike.
func TestDeltaKeysShareTheResultCache(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 2})
	defer s.Close()
	ctx := context.Background()
	full, err := s.Analyze(ctx, core.Options{}, deltaSources("conn_link(a, b);"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AnalyzeDelta(ctx, core.Options{}, full.Key,
		map[string]string{"main.c": deltaSources("conn_link(a, b); conn_link(a, a);")["main.c"]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.AnalyzeDelta(ctx, core.Options{}, first.Key,
		map[string]string{"main.c": deltaSources("conn_link(a, b); conn_link(b, b);")["main.c"]}, nil)
	if err != nil {
		t.Fatalf("delta on a delta's key: %v", err)
	}
	if second.Delta.Base != first.Key || second.Delta.FilesReused != 1 {
		t.Fatalf("chained delta info = %+v", second.Delta)
	}
	ex, err := s.Explain(ctx, first.Key, 0)
	if err != nil {
		t.Fatalf("explain a delta's key: %v", err)
	}
	if ex.Warnings == 0 || len(ex.Explanations) != ex.Warnings {
		t.Fatalf("explain a delta's key: %d explanations of %d warnings", len(ex.Explanations), ex.Warnings)
	}

	// The cache holds first and second; full's key is evicted.
	var aerr *core.Error
	_, err = s.AnalyzeDelta(ctx, core.Options{}, full.Key, nil, nil)
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("delta on an evicted key: %v, want snapshot_gone", err)
	}
	_, err = s.Explain(ctx, full.Key, 0)
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("explain an evicted key: %v, want snapshot_gone", err)
	}
	_, err = s.Query(ctx, full.Key, "main.c:13:9", "main.c:14:12")
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("query an evicted key: %v, want snapshot_gone", err)
	}
}

// TestDeltaChainReleasesEvictedAnalyses runs a chain of deltas, each
// against the previous response, through a two-entry cache. Every
// analysis the cache evicted must be collectable: a finished analysis
// that kept a pointer to its base would keep the whole chain alive.
func TestDeltaChainReleasesEvictedAnalyses(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 2})
	defer s.Close()
	ctx := context.Background()
	var collected atomic.Int64
	watch := func(res *Result) string {
		runtime.SetFinalizer(res.Analysis, func(*core.Analysis) { collected.Add(1) })
		return res.Key
	}
	res, err := s.Analyze(ctx, core.Options{}, deltaSources("conn_link(a, b);"))
	if err != nil {
		t.Fatal(err)
	}
	key := watch(res)
	const deltas = 24
	for i := 0; i < deltas; i++ {
		body := fmt.Sprintf("conn_link(a, b); /* edit %d */", i)
		res, err := s.AnalyzeDelta(ctx, core.Options{}, key,
			map[string]string{"main.c": deltaSources(body)["main.c"]}, nil)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		key = watch(res)
	}
	if st := s.Stats(); st.CacheEntries != 2 || st.CacheEvictions != deltas-1 {
		t.Fatalf("cache entries/evictions = %d/%d, want 2/%d", st.CacheEntries, st.CacheEvictions, deltas-1)
	}
	// Finalizers run after the collection that finds their object
	// unreachable, on a goroutine of their own.
	want := int64(deltas - 1)
	for i := 0; i < 50 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d evicted analyses were collected", got, want)
	}
}

func TestDeltaHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	body, err := json.Marshal(Request{Sources: deltaSources("conn_link(a, b);")})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postAnalyze(t, srv, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full status %d: %s", resp.StatusCode, data)
	}
	var fullResp AnalyzeResponse
	if err := json.Unmarshal(data, &fullResp); err != nil {
		t.Fatal(err)
	}
	if fullResp.Delta != nil {
		t.Fatal("full response carries a delta block")
	}

	edited := deltaSources("conn_link(b, a);")
	dbody, err := json.Marshal(Request{
		Base:    fullResp.Key,
		Changed: map[string]string{"main.c": edited["main.c"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postAnalyze(t, srv, string(dbody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, data)
	}
	var deltaResp AnalyzeResponse
	if err := json.Unmarshal(data, &deltaResp); err != nil {
		t.Fatal(err)
	}
	if deltaResp.Delta == nil {
		t.Fatal("delta response has no delta block")
	}
	if d := deltaResp.Delta; d.Schema != DeltaSchemaV1 || d.Base != fullResp.Key || d.FilesReused != 1 || d.FilesChanged != 1 || d.FilesRemoved != 0 {
		t.Fatalf("delta block = %+v", d)
	}
	// The unchanged file skipped every front-end phase.
	var report struct {
		Stats struct {
			Phases []struct {
				Name    string           `json:"name"`
				Outputs map[string]int64 `json:"outputs"`
			} `json:"phases"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(deltaResp.Report, &report); err != nil {
		t.Fatal(err)
	}
	reused := map[string]int64{}
	for _, p := range report.Stats.Phases {
		for _, k := range []string{"parse_files_reused", "check_files_reused", "lower_frags_reused"} {
			if v, ok := p.Outputs[k]; ok {
				reused[k] = v
			}
		}
	}
	if want := map[string]int64{"parse_files_reused": 1, "check_files_reused": 1, "lower_frags_reused": 1}; !maps.Equal(reused, want) {
		t.Errorf("delta phase outputs reused %v, want %v", reused, want)
	}

	// Unknown base -> 409 with kind snapshot_gone.
	gone, err := json.Marshal(Request{Base: strings.Repeat("cd", 32),
		Changed: map[string]string{"main.c": edited["main.c"]}})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postAnalyze(t, srv, string(gone))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gone base status %d, want 409: %s", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != "snapshot_gone" {
		t.Fatalf("error kind %q, want snapshot_gone", er.Error.Kind)
	}
	wantMetrics(t, srv,
		`regionwizd_requests_total{path="analyze",outcome="run"} 1`,
		`regionwizd_requests_total{path="delta",outcome="run"} 1`,
		`regionwizd_requests_total{path="delta",outcome="snapshot_gone"} 1`)

	// Base plus full sources is ambiguous -> 400. Changed without a
	// base is likewise rejected.
	for _, bad := range []string{
		fmt.Sprintf(`{"base": %q, "sources": {"x.c": "int main(void) { return 0; }"}}`, fullResp.Key),
		`{"changed": {"x.c": "int main(void) { return 0; }"}}`,
	} {
		resp, data = postAnalyze(t, srv, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mixed-shape status %d, want 400: %s", resp.StatusCode, data)
		}
	}
}
