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
	writeDigests(h, fileDigests(sources, nil))
	return hex.EncodeToString(h.Sum(nil))
}

// fileDigests returns the hex sha256 of every source's content by
// path. A path whose content is base's reuses base's digest, so a
// delta hashes only the files it changed; base may be nil.
func fileDigests(sources map[string]string, base *Result) map[string]string {
	out := make(map[string]string, len(sources))
	for p, src := range sources {
		if base != nil {
			if old, ok := base.Analysis.Sources[p]; ok && old == src {
				out[p] = base.digests[p]
				continue
			}
		}
		sum := sha256.Sum256([]byte(src))
		out[p] = hex.EncodeToString(sum[:])
	}
	return out
}

// writeDigests streams the canonical source-set encoding into w:
// "\x00<path>\x00<hex sha256 of content>" per path, sorted. Key and
// Digest share this single implementation so they can never drift
// apart.
func writeDigests(w io.Writer, digests map[string]string) {
	paths := make([]string, 0, len(digests))
	for p := range digests {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "\x00%s\x00%s", p, digests[p])
	}
}
