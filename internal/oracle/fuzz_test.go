package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzAnalyzeOracle is the native fuzz face of the differential
// harness: the fuzzer explores the seed space, each seed derives a
// generated-and-mutated program, and the soundness/parity invariants
// are the oracle. A failure message carries the minimized sources, so
// a fuzz crash is immediately actionable without re-deriving the
// case.
//
// Run bounded in CI: go test ./internal/oracle -run '^$' -fuzz FuzzAnalyzeOracle -fuzztime 20s
func FuzzAnalyzeOracle(f *testing.F) {
	// Seed the corpus so every template (and the unmutated stride)
	// is covered before the fuzzer starts exploring.
	for s := int64(0); s < 12; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := NewCase(seed)
		h := NewHarness()
		res, err := h.Check(c)
		if err != nil {
			// The generator plus validated mutations must always
			// yield a checkable program; anything else is a harness
			// or front-end bug worth failing on.
			t.Fatalf("case %s unchecked: %v", c.Name, err)
		}
		bad := res.Unallowed()
		if len(bad) == 0 {
			return
		}
		min := Minimize(c.Sources, h.FailurePredicate(bad[0]), 0)
		var sb strings.Builder
		for _, v := range bad {
			sb.WriteString("  " + v.String() + "\n")
		}
		paths := make([]string, 0, len(min))
		for p := range min {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			sb.WriteString("--- minimized " + p + " ---\n" + min[p] + "\n")
		}
		t.Fatalf("seed %d (%s, mutations %v):\n%s", seed, c.Name, c.Mutations, sb.String())
	})
}

// FuzzIncremental checks delta requests against a fixed multi-file
// base, whose every file ends in an appended function: the fuzzer's
// bytes pick removed paths and changed files, each a mutation of its
// base version, raw replacement bytes (a changed path may also be
// new), its base version with a fresh function appended, or its base
// version without its appended function. The delta, applied with
// AnalyzeIncremental, and a from-scratch AnalyzeSource of the same
// sources must both succeed with byte-identical canonical reports or
// both fail with the same error text; a delta that removes every file
// must fail as ErrConfig; nothing may panic.
//
// Run bounded in CI: go test ./internal/oracle -run '^$' -fuzz FuzzIncremental -fuzztime 15s
func FuzzIncremental(f *testing.F) {
	base := incrSources()
	paths := make([]string, 0, len(base))
	for p := range base {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for i, p := range paths {
		base[p] += fuzzFunc(i)
	}
	opts := core.Options{}
	first, err := core.AnalyzeSourceContext(context.Background(), opts, base)
	if err != nil {
		f.Fatal(err)
	}
	// Layout: removed-path mask, changed-path mask (bit len(paths) is a
	// new file), then per changed path a mode byte: mode%4 == 0 mutates
	// with two seed bytes, 2 appends fuzzFunc of the next byte, 3
	// deletes the base's appended function, and 1 (or any mode for the
	// new file) replaces the content with a length byte and that many
	// content bytes.
	for i := range paths {
		f.Add([]byte{0, 1 << i, 0, 7, byte(i)})
		f.Add([]byte{0, 1 << i, 2, byte(10 + i)})
		f.Add([]byte{0, 1 << i, 3})
	}
	f.Add([]byte{0x0f, 0})                         // remove everything
	f.Add([]byte{0x01, 0})                         // remove one file
	f.Add([]byte{0x0f, 0x10, 1, 3, 'i', 'n', 't'}) // everything replaced by a new file
	f.Add([]byte{0, 0x02, 1, 9, 'v', 'o', 'i', 'd', ' ', 'f', '(', ')', ';'})
	f.Add([]byte{0, 0x03, 3, 2, 0}) // one file adds the function another drops
	f.Add([]byte{0, 0x01, 2, 1})    // added name defined in another file
	f.Fuzz(func(t *testing.T, data []byte) {
		changed, removed := decodeDelta(data, base, paths)
		ctx := context.Background()
		sources := first.Apply(changed, removed)
		a, incErr := core.AnalyzeIncremental(ctx, opts, first, sources)
		if len(sources) == 0 {
			if errorKind(incErr) != core.ErrConfig {
				t.Fatalf("delta removing every file: %v, want a config error", incErr)
			}
			return
		}
		full, fullErr := core.AnalyzeSource(opts, sources)
		if incErr != nil || fullErr != nil {
			if incErr == nil || fullErr == nil || incErr.Error() != fullErr.Error() {
				t.Fatalf("incremental error %v, from-scratch error %v", incErr, fullErr)
			}
			return
		}
		if got, want := CanonicalReport(a.Report), CanonicalReport(full.Report); !bytes.Equal(got, want) {
			t.Fatalf("incremental diverged from from-scratch\nincremental:\n%s\nfrom-scratch:\n%s", got, want)
		}
	})
}

// fuzzFunc is a function definition FuzzIncremental appends to a
// file, named after k.
func fuzzFunc(k int) string {
	return fmt.Sprintf("\nint fuzz_fn_%d(int x) {\n    return x + %d;\n}\n", k, k)
}

// decodeDelta turns fuzzer bytes into a delta over base (see
// FuzzIncremental for the layout); missing bytes read as zero.
func decodeDelta(data []byte, base map[string]string, paths []string) (map[string]string, []string) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	removeMask, changeMask := next(), next()
	var removed []string
	for i, p := range paths {
		if removeMask>>i&1 == 1 {
			removed = append(removed, p)
		}
	}
	changed := make(map[string]string)
	for i, p := range append(paths[:len(paths):len(paths)], "fuzz-new.c") {
		if changeMask>>i&1 == 0 {
			continue
		}
		switch mode := next() % 4; {
		case i == len(paths) || mode == 1:
			n := min(int(next()), len(data))
			changed[p] = string(data[:n])
			data = data[n:]
		case mode == 0:
			rng := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
			changed[p], _ = mutateOnce(base[p], rng)
		case mode == 2:
			changed[p] = base[p] + fuzzFunc(int(next()))
		default:
			changed[p] = strings.Replace(base[p], fuzzFunc(i), "", 1)
		}
	}
	return changed, removed
}

// errorKind is the core.Error kind of err, or -1 for nil.
func errorKind(err error) core.ErrorKind {
	if err == nil {
		return -1
	}
	var e *core.Error
	if !errors.As(err, &e) {
		return core.ErrInternal
	}
	return e.Kind
}
