package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative kcfa", Options{Entry: "main", KCFA: -1}, "negative KCFA"},
		{"no root", Options{}, "no analysis root"},
		{"bad outarg", Options{
			Entry: "main",
			API: &RegionAPI{
				Create: map[string]CreateSpec{"mkpool": {ParentArg: 0, OutArg: -2}},
			},
		}, "OutArg -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			var aerr *Error
			if !errors.As(err, &aerr) || aerr.Kind != ErrConfig {
				t.Errorf("err = %#v, want *Error with ErrConfig", err)
			}
			if !errors.Is(err, &Error{Kind: ErrConfig}) {
				t.Error("errors.Is against config sentinel failed")
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	ok := []Options{
		{Entry: "main"},
		{Entries: []string{}},    // open program, all functions
		{Entries: []string{"f"}}, // open program, listed roots
		Options{}.Normalize(),    // zero value after normalization
		{Entry: "main", API: RCRegions()},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("case %d: Validate() = %v, want nil", i, err)
		}
	}
}

func TestNormalizeCanonicalizes(t *testing.T) {
	n := Options{}.Normalize()
	if n.Entry != "main" || n.API == nil || n.ContextCap != 4096 ||
		n.HeapCloning == nil || !*n.HeapCloning {
		t.Fatalf("zero-value normalization incomplete: %+v", n)
	}
	// Entries set: Entry is ignored, so the canonical form drops it
	// and sorts/dedupes the roots.
	n = Options{Entry: "main", Entries: []string{"b", "a", "b"}}.Normalize()
	if n.Entry != "" {
		t.Errorf("Entry = %q with Entries set, want cleared", n.Entry)
	}
	if len(n.Entries) != 2 || n.Entries[0] != "a" || n.Entries[1] != "b" {
		t.Errorf("Entries = %v, want [a b]", n.Entries)
	}
	// nil vs empty Entries mean different analyses and must survive.
	if (Options{}).Normalize().Entries != nil {
		t.Error("nil Entries became non-nil")
	}
	if (Options{Entries: []string{}}).Normalize().Entries == nil {
		t.Error("empty Entries became nil")
	}
	// Normalize does not mutate its receiver's slices.
	in := Options{Entries: []string{"z", "a"}}
	in.Normalize()
	if in.Entries[0] != "z" {
		t.Error("Normalize mutated the caller's Entries slice")
	}
}

func TestFingerprint(t *testing.T) {
	// Spelling differences that configure the same analysis agree.
	a := Options{}.Fingerprint()
	b := Options{Entry: "main", ContextCap: 4096, HeapCloning: Bool(true)}.Fingerprint()
	if a != b {
		t.Error("equivalent options fingerprint differently")
	}
	// Every semantic knob moves the fingerprint.
	variants := []Options{
		{Entry: "other"},
		{Entries: []string{}},
		{Entries: []string{"f"}},
		{ContextCap: 1},
		{HeapCloning: Bool(false)},
		{Solver: SolverOptions{Backend: BDDBackend}},
		{KCFA: 2},
		{DefUseRefinement: true},
		{ExtraAllocFns: []string{"my_alloc"}},
		{API: RCRegions()},
	}
	seen := map[string]int{a: -1}
	for i, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[fp] = i
	}
	// Observer is excluded: it cannot change results.
	withObs := Options{Observer: pipeline.ObserverFuncs[*Analysis]{}}
	if withObs.Fingerprint() != a {
		t.Error("observer changed the fingerprint")
	}
}

func TestAnalyzeBoundaryValidates(t *testing.T) {
	_, err := AnalyzeSource(Options{KCFA: -3}, map[string]string{"a.c": "int main(void) { return 0; }"})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrConfig {
		t.Fatalf("err = %v, want config Error", err)
	}
}

func TestTypedErrorKinds(t *testing.T) {
	// Parse failures carry the parse kind and a source position.
	_, err := AnalyzeSource(Options{}, map[string]string{"bad.c": "int main(void) { return }"})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrParse {
		t.Fatalf("parse err = %v, want parse Error", err)
	}
	if !strings.HasPrefix(aerr.Pos, "bad.c:") {
		t.Errorf("parse error position = %q, want bad.c:<line>:<col>", aerr.Pos)
	}
	// Missing entry resolves to the resolve kind.
	_, err = AnalyzeSource(Options{Entry: "nope"}, map[string]string{"a.c": "int main(void) { return 0; }"})
	if !errors.As(err, &aerr) || aerr.Kind != ErrResolve {
		t.Fatalf("resolve err = %v, want resolve Error", err)
	}
	// Cancellation is internal but still unwraps to context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = AnalyzeSourceContext(ctx, Options{}, map[string]string{"a.c": "int main(void) { return 0; }"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v, want wraps context.Canceled", err)
	}
	if !errors.As(err, &aerr) || aerr.Kind != ErrInternal {
		t.Fatalf("cancelled err = %v, want internal Error", err)
	}
}
