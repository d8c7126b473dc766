package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	regionwiz "repro"
)

// These tests drive the command in-process through run, with the
// arguments a user would type: they pin its exit statuses, its
// diagnostics and the documents it writes.

// figure1 is the paper's Figure 1 program (one HIGH warning), named by
// its path from this package's directory.
var figure1 = filepath.Join("..", "..", "examples", "figure1.c")

// cli runs regionwiz with args and returns its exit status, stdout and
// stderr.
func cli(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// jsonDocs decodes the JSON documents printed one after another.
func jsonDocs(t *testing.T, out string) []map[string]any {
	t.Helper()
	var docs []map[string]any
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("output is not a JSON document sequence: %v\n%s", err, out)
		}
		docs = append(docs, doc)
	}
	return docs
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Args map[string]any `json:"args"`
}

// readTrace decodes a -trace file and checks its schema.
func readTrace(t *testing.T, path string) []traceEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string       `json:"schema"`
		Events []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s is not JSON: %v", path, err)
	}
	if doc.Schema != "regionwiz/trace/v1" {
		t.Fatalf("%s: schema %q", path, doc.Schema)
	}
	return doc.Events
}

func count(events []traceEvent, name string) int {
	n := 0
	for _, ev := range events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestExitStatus: 3 when the report has warnings, 0 on a clean
// program, 2 on an unknown flag (the retired BDD sizing flag included)
// and 0 on -h.
func TestExitStatus(t *testing.T) {
	clean := filepath.Join(t.TempDir(), "ok.c")
	if err := os.WriteFile(clean, []byte("int main(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{figure1}, 3},
		{[]string{clean}, 0},
		{[]string{"-bdd-node-size", "1", figure1}, 2},
		{[]string{"-no-such-flag", figure1}, 2},
		{[]string{"-h"}, 0},
		{nil, 2},
	} {
		if code, stdout, stderr := cli(tc.args...); code != tc.want {
			t.Errorf("regionwiz %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	if _, stdout, _ := cli(figure1); !strings.Contains(stdout, "[HIGH]") {
		t.Errorf("figure1 report has no HIGH warning:\n%s", stdout)
	}
}

// TestFrontEndErrors: a front-end error exits 1 and names its file,
// line and column — a parse error in the second file of a program, and
// a self-embedding struct at its embedding field.
func TestFrontEndErrors(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"ok.c":   "int main(void) { return 0; }\n",
		"bad.c":  "int f(void) { return 1 +; }\n",
		"self.c": "int pad;\nstruct node { int v; struct node next; };\nint main(void) { return 0; }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		files []string
		want  string
	}{
		{[]string{path("ok.c"), path("bad.c")}, path("bad.c") + ":1:25: expected expression"},
		{[]string{path("self.c")}, path("self.c") + ":2:22: struct node embeds itself"},
	} {
		code, _, stderr := cli(tc.files...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("regionwiz %v: exit %d, stderr %q; want exit 1 and %q", tc.files, code, stderr, tc.want)
		}
	}
}

// TestTrace: -trace writes a Chrome trace_event document with the
// versioned schema and the pipeline's phase spans. On the BDD backend
// the pairs phase shows its load, stratum and extract spans and
// evaluates the objectPair join once.
func TestTrace(t *testing.T) {
	dir := t.TempDir()
	explicit, bdd := filepath.Join(dir, "trace.json"), filepath.Join(dir, "bdd-trace.json")
	if code, _, stderr := cli("-trace", explicit, figure1); code != 3 {
		t.Fatalf("exit %d, want 3: %s", code, stderr)
	}
	if code, _, stderr := cli("-backend", "bdd", "-trace", bdd, figure1); code != 3 {
		t.Fatalf("bdd: exit %d, want 3: %s", code, stderr)
	}

	events := readTrace(t, explicit)
	complete := 0
	for _, ev := range events {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Error("trace has no complete (ph X) events")
	}
	for _, phase := range []string{"phase:parse", "phase:pointer"} {
		if count(events, phase) == 0 {
			t.Errorf("trace has no %s span", phase)
		}
	}

	events = readTrace(t, bdd)
	if n := count(events, "rule:objectPair:-regionPair,own,own,access"); n != 1 {
		t.Errorf("objectPair rule evaluated %d times, want 1", n)
	}
	for _, name := range []string{"pairs.load", "pairs.extract", "pairs.stratum:leq",
		"pairs.stratum:regionPair", "pairs.stratum:objectPair"} {
		if count(events, name) == 0 {
			t.Errorf("bdd trace has no %s span", name)
		}
	}
}

// TestExplainAll: -json -explain all prints the report, then the
// explanation document; every warning has a tree whose leaves are base
// facts with source positions. Both backends print the same document,
// and it is the one the library's MarshalExplanations gives for the
// same path, which is what regionwizd's own test compares the daemon
// against.
func TestExplainAll(t *testing.T) {
	var docs [2][]byte
	for i, backend := range []string{"explicit", "bdd"} {
		code, stdout, stderr := cli("-json", "-explain", "all", "-backend", backend, figure1)
		if code != 3 {
			t.Fatalf("%s: exit %d, want 3: %s", backend, code, stderr)
		}
		parts := jsonDocs(t, stdout)
		if len(parts) != 2 {
			t.Fatalf("%s: %d documents, want the report and the explanations", backend, len(parts))
		}
		report, explain := parts[0], parts[1]
		if report["schema"] != "regionwiz/report/v1" || explain["schema"] != "regionwiz/explain/v1" {
			t.Fatalf("%s: schemas %v, %v", backend, report["schema"], explain["schema"])
		}
		warnings, _ := report["warnings"].([]any)
		exps, _ := explain["explanations"].([]any)
		if len(exps) == 0 || len(exps) != len(warnings) {
			t.Fatalf("%s: %d explanations for %d warnings", backend, len(exps), len(warnings))
		}
		for _, e := range exps {
			for _, leaf := range leaves(e.(map[string]any)["tree"].(map[string]any)) {
				if leaf["kind"] != "base" || leaf["pos"] == nil || leaf["pos"] == "" {
					t.Errorf("%s: leaf %v is not a positioned base fact", backend, leaf)
				}
			}
		}
		docs[i] = []byte(stdout[strings.Index(stdout, "\n{")+1:])
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("explanations differ between backends:\n--- explicit ---\n%s\n--- bdd ---\n%s", docs[0], docs[1])
	}

	a, err := regionwiz.AnalyzeFiles(regionwiz.Options{}, figure1)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := a.Explain(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regionwiz.MarshalExplanations(exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(docs[0], []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("CLI explanations differ from the library's:\n--- CLI ---\n%s\n--- library ---\n%s", got, want)
	}
}

// leaves lists the childless nodes of an explanation tree.
func leaves(n map[string]any) []map[string]any {
	children, _ := n["children"].([]any)
	if len(children) == 0 {
		return []map[string]any{n}
	}
	var out []map[string]any
	for _, c := range children {
		out = append(out, leaves(c.(map[string]any))...)
	}
	return out
}

// TestQuery: the -query exit status is the pair's verdict (3
// inconsistent, 0 consistent, 1 on a failed query), an origin-policy
// run marks its answer throttled, and -trace and -phase-stats cover
// query runs: the full pipeline runs, pairs phase included, and a
// failing query still ends its query.pair span, marked as an error.
func TestQuery(t *testing.T) {
	dir := t.TempDir()
	q := figure1 + ":21:17," + figure1 + ":19:18"
	rev := figure1 + ":19:18," + figure1 + ":21:17"
	queryTrace, failTrace := filepath.Join(dir, "query.json"), filepath.Join(dir, "fail.json")

	answer := func(want int, args ...string) map[string]any {
		t.Helper()
		code, stdout, stderr := cli(args...)
		if code != want {
			t.Fatalf("regionwiz %v: exit %d, want %d: %s", args, code, want, stderr)
		}
		docs := jsonDocs(t, stdout)
		if len(docs) != 1 || docs[0]["schema"] != "regionwiz/query/v1" {
			t.Fatalf("regionwiz %v: want one query document, got %v", args, docs)
		}
		return docs[0]
	}
	ans := answer(3, "-json", "-trace", queryTrace, "-query", q, figure1)
	if ans["inconsistent"] != true || ans["high"] != true || ans["object_pairs"].(float64) <= 0 || ans["throttled"] == true {
		t.Errorf("query answer %v, want an inconsistent, high, unthrottled pair", ans)
	}
	if ans := answer(0, "-json", "-query", rev, figure1); ans["inconsistent"] != false {
		t.Errorf("reverse probe %v, want consistent", ans)
	}
	if ans := answer(3, "-json", "-context-policy", "origin", "-query", q, figure1); ans["inconsistent"] != true || ans["throttled"] != true {
		t.Errorf("origin answer %v, want inconsistent and throttled", ans)
	}

	events := readTrace(t, queryTrace)
	if count(events, "phase:pairs") == 0 || count(events, "query.pair") == 0 {
		t.Errorf("query trace lacks phase:pairs or query.pair")
	}
	if code, _, stderr := cli("-json", "-trace", failTrace, "-query", figure1+":1,"+figure1+":19:18", figure1); code != 1 {
		t.Fatalf("failing query: exit %d, want 1: %s", code, stderr)
	}
	var failed []traceEvent
	for _, ev := range readTrace(t, failTrace) {
		if ev.Name == "query.pair" {
			failed = append(failed, ev)
		}
	}
	if len(failed) != 1 || failed[0].Args["error"] != true {
		t.Errorf("failed query spans %v, want one marked error", failed)
	}

	code, stdout, stderr := cli("-phase-stats", "-query", q, figure1)
	if code != 3 {
		t.Fatalf("-phase-stats -query: exit %d, want 3: %s", code, stderr)
	}
	if !strings.Contains("\n"+stdout, "\npairs ") {
		t.Errorf("-phase-stats output has no pairs row:\n%s", stdout)
	}
}
