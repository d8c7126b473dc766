package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// FuzzHandlerAnalyze feeds raw bodies to POST /v1/analyze. Whatever
// the bytes, the handler must answer 200 or a typed 4xx — never a 5xx
// and never a panic — and must leave no in-flight call or running
// pipeline behind.
func FuzzHandlerAnalyze(f *testing.F) {
	valid, err := json.Marshal(Request{Sources: sourcesFor(0)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	s := New(Config{Workers: 1})
	defer s.Close()
	// Analyze the valid body's sources up front so the delta seed's
	// base names a snapshot the service holds.
	base, err := s.Analyze(context.Background(), core.Options{}, sourcesFor(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"base":"` + base.Key + `","changed":{"prog0.c":"int main(void) { return 0; }"}}`))
	// Kernel lifecycle keys the wire no longer carries.
	f.Add([]byte(`{"sources":{"a.c":"int main(void) { return 0; }"},"options":{"backend":"bdd","bdd_gc":true}}`))
	f.Add([]byte(`{"sources":{"a.c":"int main(void) { return 0; }"},"options":{"backend":"bdd","bdd_gc_threshold":0.5}}`))
	f.Add([]byte(`{"sources":{"a.c":"int main(void) { return 0; }"},"options":{"backend":"bdd","bdd_reorder":true}}`))
	f.Add(valid[:len(valid)/2])
	// A node-table size past 2^62 once sent the BDD kernel's
	// power-of-two rounding into an endless loop.
	huge, err := json.Marshal(Request{Sources: sourcesFor(0), Options: RequestOptions{Backend: "bdd", BDDNodeSize: 1<<62 + 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge)

	h := NewHandler(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Kind == "" {
				t.Fatalf("status %d with an untyped body: %.300s", code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d: %.300s", code, rec.Body.Bytes())
		}
		s.mu.Lock()
		calls := len(s.calls)
		s.mu.Unlock()
		if calls != 0 {
			t.Fatalf("%d in-flight call(s) left after the response", calls)
		}
		if n := s.Stats().Inflight; n != 0 {
			t.Fatalf("inflight = %d after the response", n)
		}
	})
}
