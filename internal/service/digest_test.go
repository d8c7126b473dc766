package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
