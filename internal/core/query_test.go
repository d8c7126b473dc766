package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestQueryPairSpan pins that QueryPair ends its query.pair span on
// every return: a failing query records exactly one span marked as an
// error, and a successful one records exactly one span without that
// mark.
func TestQueryPairSpan(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "examples", "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSource(Options{}, map[string]string{"examples/figure1.c": string(fig1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src, dst string
		fail     bool
	}{
		{"examples/figure1.c:1", "examples/figure1.c:19:18", true},
		{"examples/figure1.c:21:17", "examples/figure1.c:19:18", false},
	} {
		tracer := trace.New()
		_, err := a.QueryPair(trace.WithTracer(context.Background(), tracer), tc.src, tc.dst)
		if (err != nil) != tc.fail {
			t.Fatalf("QueryPair(%s, %s): err = %v, want failure %t", tc.src, tc.dst, err, tc.fail)
		}
		var buf bytes.Buffer
		if err := tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Events []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var spans []map[string]any
		for _, r := range doc.Events {
			if r.Name == "query.pair" {
				spans = append(spans, r.Attrs)
			}
		}
		if len(spans) != 1 {
			t.Fatalf("QueryPair(%s, %s) recorded %d query.pair spans, want 1", tc.src, tc.dst, len(spans))
		}
		if got := spans[0]["error"] == true; got != tc.fail {
			t.Errorf("QueryPair(%s, %s): span attrs %v, want error mark %t", tc.src, tc.dst, spans[0], tc.fail)
		}
	}
}
