package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDigestFormat pins the byte layout of the source-set digest:
// sha256 over "\x00<path>\x00<hex sha256 of content>" per path in
// sorted order. Cache keys (and therefore delta bases) for
// identical requests must never change across releases, so this test
// spells the algorithm out independently rather than calling the
// helpers under test.
func TestDigestFormat(t *testing.T) {
	sources := map[string]string{
		"b.c": "int x;\n",
		"a.c": "int main(void) { return 0; }\n",
	}

	h := sha256.New()
	for _, p := range []string{"a.c", "b.c"} { // sorted path order
		content := sha256.Sum256([]byte(sources[p]))
		fmt.Fprintf(h, "\x00%s\x00%s", p, hex.EncodeToString(content[:]))
	}
	want := hex.EncodeToString(h.Sum(nil))

	if got := Digest(sources); got != want {
		t.Fatalf("Digest layout changed:\n got %s\nwant %s", got, want)
	}

	// Key prepends the options fingerprint to the same encoding.
	opts := core.Options{}.Normalize()
	kh := sha256.New()
	kh.Write([]byte(opts.Fingerprint()))
	for _, p := range []string{"a.c", "b.c"} {
		content := sha256.Sum256([]byte(sources[p]))
		fmt.Fprintf(kh, "\x00%s\x00%s", p, hex.EncodeToString(content[:]))
	}
	if got, want := Key(opts, sources), hex.EncodeToString(kh.Sum(nil)); got != want {
		t.Fatalf("Key layout changed:\n got %s\nwant %s", got, want)
	}
}

// TestDeltaKeyMatchesFullKey: a delta's key, which reuses its base's
// digest for every file the delta leaves alone, equals Key over the
// composed sources. The deltas chain, so all but the first reuse
// digests a delta result kept.
func TestDeltaKeyMatchesFullKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	opts := core.Options{}.Normalize()
	cur := deltaSources("conn_link(a, b);")
	cur["extra.c"] = "int extra_helper(void) { return 1; }\n"
	res, err := s.Analyze(ctx, opts, cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name    string
		changed map[string]string
		removed []string
	}{
		{"body edit", map[string]string{"main.c": deltaSources("conn_link(b, a);")["main.c"]}, nil},
		{"added function", map[string]string{"lib.c": strings.Replace(cur["lib.c"],
			"void conn_link(", "int added_helper(void) { return 2; }\nvoid conn_link(", 1)}, nil},
		{"removed function", map[string]string{"lib.c": cur["lib.c"]}, nil},
		{"removed path", nil, []string{"extra.c"}},
	} {
		next := maps.Clone(cur)
		for _, p := range d.removed {
			delete(next, p)
		}
		maps.Copy(next, d.changed)
		delta, err := s.AnalyzeDelta(ctx, opts, res.Key, d.changed, d.removed)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if want := Key(opts, next); delta.Key != want {
			t.Errorf("%s: delta key %s, want Key of the composed sources %s", d.name, delta.Key, want)
		}
		res, cur = delta, next
	}
}
