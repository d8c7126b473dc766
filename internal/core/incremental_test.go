package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// stableReport renders a report with the volatile stats (wall times,
// per-phase metrics) stripped, for comparing runs that took different
// paths to the same answer.
func stableReport(t *testing.T, r *Report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	stats := m["stats"].(map[string]interface{})
	delete(stats, "time_ms")
	delete(stats, "phases")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal report: %v", err)
	}
	return string(out)
}

// incrSources is a two-file program: lib.c defines helpers, main.c
// drives them. Edits to main.c's body leave lib.c untouched.
func incrSources(body string) map[string]string {
	return map[string]string{
		"lib.c": rcPrelude + `
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *mkconn(region_t *r) {
    struct conn_t *c;
    c = ralloc(r);
    return c;
}
void conn_link(struct conn_t *x, struct conn_t *y) {
    x->next = y;
}`,
		"main.c": rcPrelude + `
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

func TestIncrementalBodyEditMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	first, err := AnalyzeSourceContext(ctx, Options{}, incrSources("conn_link(a, b);"))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	edited := incrSources("conn_link(b, a);") // flips the inconsistency direction
	inc, err := AnalyzeIncremental(ctx, Options{}, first,
		first.Apply(map[string]string{"main.c": edited["main.c"]}, nil))
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	full, err := AnalyzeSourceContext(ctx, Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}

	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("incremental report differs from from-scratch:\nincremental: %s\nfull:        %s", got, want)
	}
	f := inc.Front
	if f.ParseReused != 1 || f.ParseParsed != 1 {
		t.Fatalf("parse reuse = %d/%d, want 1 reused / 1 parsed", f.ParseReused, f.ParseParsed)
	}
	if f.CheckReused != 1 || f.CheckChecked != 1 {
		t.Fatalf("check reuse = %d/%d, want 1 reused / 1 checked", f.CheckReused, f.CheckChecked)
	}
	if f.LowerReused != 1 || f.LowerLowered != 1 {
		t.Fatalf("lower reuse = %d/%d, want 1 reused / 1 lowered", f.LowerReused, f.LowerLowered)
	}
	// The finished analysis keeps no pointer to its base, or a chain
	// of deltas would keep every earlier analysis alive.
	if inc.base != nil || inc.baseIndex != nil || inc.changed != nil {
		t.Fatal("incremental analysis still references its base")
	}
	// The reuse counters surface in the report's phase outputs.
	var parse *PhaseStat
	for i := range inc.Report.Stats.Phases {
		if inc.Report.Stats.Phases[i].Name == PhaseParse {
			parse = &inc.Report.Stats.Phases[i]
		}
	}
	if parse == nil || parse.Outputs["parse_files_reused"] != 1 {
		t.Fatalf("parse phase outputs missing reuse counter: %+v", parse)
	}
}

func TestIncrementalSignatureChangeFallsBack(t *testing.T) {
	ctx := context.Background()
	base := incrSources("conn_link(a, b);")
	first, err := AnalyzeSourceContext(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	// A parameter-type change changes lib.c's declaration signature:
	// the checker must rerun over everything, but parses are still
	// reused.
	edited := map[string]string{
		"lib.c":  strings.Replace(base["lib.c"], "struct conn_t *y) {", "void *y) {", 1),
		"main.c": base["main.c"],
	}
	if edited["lib.c"] == base["lib.c"] {
		t.Fatal("lib.c holds no conn_link definition to edit")
	}
	inc, err := AnalyzeIncremental(ctx, Options{}, first,
		first.Apply(map[string]string{"lib.c": edited["lib.c"]}, nil))
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	full, err := AnalyzeSourceContext(ctx, Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("fallback report differs from from-scratch:\n%s\nvs\n%s", got, want)
	}
	f := inc.Front
	if f.ParseReused != 1 {
		t.Fatalf("parse reuse = %d, want 1", f.ParseReused)
	}
	if f.CheckReused != 0 || f.CheckChecked != 2 {
		t.Fatalf("check reuse = %d/%d, want full fallback (0 reused / 2 checked)", f.CheckReused, f.CheckChecked)
	}
	if f.LowerReused != 0 {
		t.Fatalf("lower reused %d fragments across a declaration change", f.LowerReused)
	}
}

func TestIncrementalAddAndRemoveFile(t *testing.T) {
	ctx := context.Background()
	base := incrSources("conn_link(a, b);")
	first, err := AnalyzeSourceContext(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	extra := rcPrelude + `
int unused_helper(void) { return 2; }`
	inc, err := AnalyzeIncremental(ctx, Options{}, first,
		first.Apply(map[string]string{"extra.c": extra}, nil))
	if err != nil {
		t.Fatalf("add-file analyze: %v", err)
	}
	want := map[string]string{"lib.c": base["lib.c"], "main.c": base["main.c"], "extra.c": extra}
	full, err := AnalyzeSourceContext(ctx, Options{}, want)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	if got, wantS := stableReport(t, inc.Report), stableReport(t, full.Report); got != wantS {
		t.Fatalf("add-file report differs from from-scratch")
	}

	// Removing it again returns to the base program.
	inc2, err := AnalyzeIncremental(ctx, Options{}, inc, inc.Apply(nil, []string{"extra.c"}))
	if err != nil {
		t.Fatalf("remove-file analyze: %v", err)
	}
	fullBase, err := AnalyzeSourceContext(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("from-scratch base analyze: %v", err)
	}
	if got, wantS := stableReport(t, inc2.Report), stableReport(t, fullBase.Report); got != wantS {
		t.Fatalf("remove-file report differs from from-scratch")
	}
}

func TestIncrementalOptionMismatchRejected(t *testing.T) {
	ctx := context.Background()
	first, err := AnalyzeSourceContext(ctx, Options{}, incrSources("conn_link(a, b);"))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	_, err = AnalyzeIncremental(ctx, Options{ContextCap: 1}, first, first.Apply(nil, nil))
	if !errors.Is(err, &Error{Kind: ErrConfig}) {
		t.Fatalf("options mismatch returned %v, want ErrConfig", err)
	}
	_, err = AnalyzeIncremental(ctx, Options{}, first, first.Apply(nil, []string{"lib.c", "main.c"}))
	if !errors.Is(err, &Error{Kind: ErrConfig}) {
		t.Fatalf("empty source set returned %v, want ErrConfig", err)
	}
}

// typedefSources defines its structs inside typedefs, anonymous and
// tagged, which the checker once reported as redefinitions of
// themselves.
func typedefSources(body string) map[string]string {
	return map[string]string{
		"lib.c": "int helper(int x) { return x; }\n",
		"main.c": rcPrelude + `
typedef struct { int fd; } conn_t;
typedef struct req_s { conn_t *connection; } req_t;
int main(void) {
    region_t *r;
    region_t *subr;
    conn_t *conn;
    struct req_s *req;
    r = rnew(NULL);
    conn = ralloc(r);
    subr = rnew(NULL);   /* sibling, not a subregion */
    req = ralloc(subr);
` + body + `
    return 0;
}`,
	}
}

func TestTypedefStructEndToEnd(t *testing.T) {
	ctx := context.Background()
	a, err := AnalyzeSourceContext(ctx, Options{}, typedefSources(""))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	if n := len(a.Report.Warnings); n != 0 {
		t.Fatalf("base: %d warnings, want 0", n)
	}

	edited := typedefSources("req->connection = conn;")
	full, err := AnalyzeSource(Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	if n := len(full.Report.Warnings); n != 1 {
		t.Fatalf("edited: %d warnings, want 1", n)
	}
	inc, err := AnalyzeIncremental(ctx, Options{}, a,
		a.Apply(map[string]string{"main.c": edited["main.c"]}, nil))
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("incremental report differs from from-scratch:\nincremental: %s\nfull:        %s", got, want)
	}
	// The body edit keeps main.c's signature, so the check phase
	// re-checks main.c alone against the base's declarations.
	if f := inc.Front; f.CheckReused != 1 || f.CheckChecked != 1 {
		t.Fatalf("check reuse = %d/%d, want 1 reused / 1 checked", f.CheckReused, f.CheckChecked)
	}
}

// deltaAgainstScratch runs one delta against base and a from-scratch
// analysis of the same sources. Either both fail with the same error
// text, and it returns nil, or both succeed with the same report, and
// it returns the delta's analysis.
func deltaAgainstScratch(t *testing.T, base *Analysis, changed map[string]string) *Analysis {
	t.Helper()
	ctx := context.Background()
	sources := base.Apply(changed, nil)
	inc, incErr := AnalyzeIncremental(ctx, base.Opts, base, sources)
	full, fullErr := AnalyzeSourceContext(ctx, base.Opts, sources)
	if incErr != nil || fullErr != nil {
		if incErr == nil || fullErr == nil || incErr.Error() != fullErr.Error() {
			t.Fatalf("delta error %v, from-scratch error %v", incErr, fullErr)
		}
		return nil
	}
	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("delta report differs from from-scratch:\ndelta: %s\nfull:  %s", got, want)
	}
	return inc
}

// incrementalEligible parses a delta against base and reports whether
// its check may reuse the base's declaration environment.
func incrementalEligible(t *testing.T, base *Analysis, changed map[string]string) bool {
	t.Helper()
	a := newAnalysis(base.Opts)
	a.Sources, a.base = base.Apply(changed, nil), base
	if _, err := phases[0].run(context.Background(), a); err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, ok := a.incrementalEdits()
	return ok
}

// TestIncrementalAddRemoveFunction: adding or removing whole function
// definitions re-checks only the edited file unless the rest of the
// program names, or already declares, an added or removed function.
// Every delta must equal the from-scratch run, error text included.
func TestIncrementalAddRemoveFunction(t *testing.T) {
	ctx := context.Background()
	base := incrSources("conn_link(a, b);\n    lib_count();")
	base["lib.c"] += `
int gcount;
int helper(void);
int helper(void) { return 1; }
int lib_count(void) { return 4; }
int perfbench_edit_5(int x) { return x + 5; }

int perfbench_edit_10(int x) { return x + 10; }

`
	first, err := AnalyzeSourceContext(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	edit := func(changed map[string]string, path, old, new string) map[string]string {
		t.Helper()
		if !strings.Contains(base[path], old) {
			t.Fatalf("%q not in %s", old, path)
		}
		if changed == nil {
			changed = make(map[string]string)
		}
		changed[path] = strings.Replace(base[path], old, new, 1)
		return changed
	}
	perfbench := edit(nil, "lib.c", "int perfbench_edit_5(int x) { return x + 5; }\n\n", "")
	perfbench["lib.c"] += "int perfbench_edit_55(int x) { return x + 55; }\n\n"
	for _, tc := range []struct {
		name    string
		changed map[string]string
		fast    bool
	}{
		{"perfbench shape: one added, the oldest dropped", perfbench, true},
		{"added name clashes with a global in another file",
			edit(nil, "main.c", "    return 0;\n}", "    return gcount();\n}\nint gcount(void) { return 0; }"), false},
		{"added name defined in another file", edit(nil, "main.c", "int main(void)", "int helper(void) { return 3; }\nint main(void)"), false},
		{"name added to two files",
			edit(edit(nil, "main.c", "int main(void)", "int twice(void) { return 3; }\nint main(void)"),
				"lib.c", "int gcount;", "int twice(void) { return 3; }\nint gcount;"), false},
		{"removed function still called from another file", edit(nil, "lib.c", "int lib_count(void) { return 4; }\n", ""), false},
		{"removed function keeps its prototype", edit(nil, "lib.c", "int helper(void) { return 1; }\n", ""), false},
		{"body names an undeclared identifier", edit(nil, "main.c", "conn_link(a, b);", "conn_link(a, missing);"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := incrementalEligible(t, first, tc.changed); got != tc.fast {
				t.Errorf("incremental check eligible %t, want %t", got, tc.fast)
			}
			inc := deltaAgainstScratch(t, first, tc.changed)
			if inc == nil {
				return
			}
			if fast := inc.Front.CheckReused > 0; fast != tc.fast {
				t.Errorf("check reused %d files, want the incremental path %t", inc.Front.CheckReused, tc.fast)
			}
			if tc.fast && inc.Front.LowerReused != len(base)-len(tc.changed) {
				t.Errorf("lower reused %d fragments, want every unchanged file's", inc.Front.LowerReused)
			}
		})
	}
}
