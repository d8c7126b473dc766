package core

import (
	"context"
	"encoding/json"
	"errors"
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

	// Adding a function changes main.c's declaration signature: the
	// checker must rerun over everything, but parses are still reused.
	edited := map[string]string{
		"lib.c": base["lib.c"],
		"main.c": base["main.c"] + `
int helper(void) { return 1; }`,
	}
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
