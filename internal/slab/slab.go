// Package slab allocates values of one type in chunks whose lifetime
// is the structure they build, the way a region allocator groups
// objects that die together. The parser takes its most numerous
// nodes from slabs: a file's AST nodes live as long as the file.
//
// A slab is just a slice whose length is the number of values handed
// out from its current chunk. Chunks never move once values are handed
// out, so earlier pointers stay valid; a full chunk is left to the
// values that point into it and a fresh one, twice as large, takes its
// place. Chunks start small, so the many small files and fragments a
// long-running service caches waste little, and stop growing at
// MaxChunkBytes, so no chunk becomes a large-object span.
package slab

import "unsafe"

// MaxChunkBytes caps the size of one chunk: the largest size class
// the Go allocator serves from its small-object spans (32 KiB), less
// the 8-byte header it puts before every object over 512 bytes that
// holds pointers. A chunk of exactly 32 KiB of such values (1024
// 32-byte nodes, say) would be a large object: a span of its own,
// zeroed page by page.
const MaxChunkBytes = 32<<10 - 8

// firstChunk is the element count of a slab's first chunk.
const firstChunk = 8

// New returns a pointer to a fresh zero T carved from the chunk in *s,
// starting a new chunk when the current one is full.
func New[T any](s *[]T) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, nextChunk[T](cap(*s)))
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// nextChunk returns the capacity of the chunk that follows one of
// capacity n: double it, within MaxChunkBytes but at least one value.
func nextChunk[T any](n int) int {
	var zero T
	limit := max(MaxChunkBytes/max(int(unsafe.Sizeof(zero)), 1), 1)
	return min(max(2*n, firstChunk), limit)
}
