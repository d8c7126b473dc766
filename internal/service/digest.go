package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
)

// Digest returns the content-addressed digest of a source set: a
// sha256 over every (path, per-file sha256) pair in sorted path order.
// It is the sources half of Key — two source sets digest equal exactly
// when they would produce equal cache keys under equal options. The
// byte layout is pinned by TestDigestFormat: cache
// keys for identical requests must never change across releases.
func Digest(sources map[string]string) string {
	h := sha256.New()
	writeSources(h, sources)
	return hex.EncodeToString(h.Sum(nil))
}

// writeSources streams the canonical source-set encoding into w:
// "\x00<path>\x00<hex sha256 of content>" per path, sorted. Key and
// Digest share this single implementation so they can never drift
// apart.
func writeSources(w io.Writer, sources map[string]string) {
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "\x00%s\x00%s", p, fileDigest(sources[p]))
	}
}

// fileDigest returns the hex sha256 of one source file's content.
func fileDigest(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}
