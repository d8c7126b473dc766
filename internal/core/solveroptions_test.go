package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSolverOptionsFingerprintAliases: spelling a solver default out
// configures the same analysis as leaving it unset, and the digests
// themselves are pinned — the text Fingerprint hashes must not drift,
// or every cache key changes with it.
func TestSolverOptionsFingerprintAliases(t *testing.T) {
	spelled := Options{Solver: SolverOptions{Backend: ExplicitBackend, PtsLimit: 0}}
	if spelled.Fingerprint() != (Options{}).Fingerprint() {
		t.Errorf("explicitly spelled solver defaults fingerprint differently from the zero value")
	}
	for _, tc := range []struct {
		o    Options
		want string
	}{
		{Options{}, "cecf35781c0030af4a979f296b9f951957794b2920c4064034111ca7554665f1"},
		{Options{Solver: SolverOptions{Backend: BDDBackend}}, "57a44afa188cd4beb27af44cf0a1045cdbc41c6f2cb8094b4ef8f2a505f303cb"},
		{Options{Solver: SolverOptions{PtsLimit: 2}}, "8160e740a4e37ba1487b574875f9ee6e0e8c66fcce67dd6c543572e298098312"},
	} {
		if got := tc.o.Fingerprint(); got != tc.want {
			t.Errorf("Fingerprint(%+v) = %s, want %s", tc.o.Solver, got, tc.want)
		}
	}
}

func TestSolverOptionsValidate(t *testing.T) {
	ok := Options{Entry: "main"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"negative pts limit", Options{Entry: "main", Solver: SolverOptions{PtsLimit: -2}}, "Solver.PtsLimit"},
	} {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.o.Solver)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// canonicalReportText renders a report with the volatile stats (wall
// time, per-phase metrics) removed — the same byte-equality contract
// the oracle and regionbench use.
func canonicalReportText(t *testing.T, r *Report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if stats, ok := m["stats"].(map[string]interface{}); ok {
		delete(stats, "time_ms")
		delete(stats, "phases")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal report: %v", err)
	}
	return string(out)
}
