package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bench runs regionbench with args and returns its exit status, stdout
// and stderr.
func bench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTablesSmall: -table all prints the paper's Figures 7, 8 and 11
// over the small corpus.
func TestTablesSmall(t *testing.T) {
	code, stdout, stderr := bench("-table", "all", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, header := range []string{
		"Figure 7. Benchmarks",
		"Figure 8. High-ranked warnings",
		"Figure 11. Quantitative results per executable.",
	} {
		if !strings.Contains(stdout, header) {
			t.Errorf("output lacks %q:\n%s", header, stdout)
		}
	}
}

// TestOracleJSON: -oracle -json writes the sweep's summary document
// and exits 0 on a clean sweep.
func TestOracleJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.json")
	code, stdout, stderr := bench("-oracle", "-seeds", "1", "-json", path)
	if code != 0 || !strings.Contains(stdout, "oracle: PASS") {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Cases  int    `json:"cases"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "regionwiz/oracle/v1" || doc.Cases == 0 {
		t.Errorf("summary schema %q with %d cases", doc.Schema, doc.Cases)
	}
}

// TestUsageErrors: usage errors exit 2 and -h exits 0.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-json", "out.json"}, 2},
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-h"}, 0},
	} {
		if code, _, stderr := bench(tc.args...); code != tc.want {
			t.Errorf("regionbench %v: exit %d, want %d: %s", tc.args, code, tc.want, stderr)
		}
	}
}
