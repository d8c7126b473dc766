package slab

import (
	"testing"
	"unsafe"
)

func TestEarlyPointersSurviveGrowth(t *testing.T) {
	var s []int
	first := New(&s)
	*first = 42
	ptrs := []*int{first}
	for i := 1; i < 100000; i++ {
		p := New(&s)
		*p = i
		ptrs = append(ptrs, p)
	}
	if *first != 42 {
		t.Fatalf("first value = %d, want 42", *first)
	}
	for i, p := range ptrs[1:] {
		if *p != i+1 {
			t.Fatalf("value %d = %d", i+1, *p)
		}
	}
}

func TestNewReturnsZeroValues(t *testing.T) {
	var s []struct{ a, b int }
	for i := 0; i < 1000; i++ {
		if p := New(&s); p.a != 0 || p.b != 0 {
			t.Fatalf("value %d not zero: %+v", i, *p)
		}
	}
}

func TestChunksCapped(t *testing.T) {
	type big struct{ b [1000]byte }
	var s []big
	prev := -1
	for i := 0; i < 5000; i++ {
		New(&s)
		if c := cap(s); c != prev {
			if bytes := c * int(unsafe.Sizeof(big{})); bytes > MaxChunkBytes {
				t.Fatalf("chunk of %d values is %d bytes, over %d", c, bytes, MaxChunkBytes)
			}
			prev = c
		}
	}
	if want := MaxChunkBytes / int(unsafe.Sizeof(big{})); prev != want {
		t.Fatalf("steady chunk = %d values, want %d", prev, want)
	}
	var huge []struct{ b [MaxChunkBytes + 1]byte }
	New(&huge)
	New(&huge)
	if cap(huge) != 1 {
		t.Fatalf("oversized value chunk = %d values, want 1", cap(huge))
	}
}

func TestChunksGrowFromSmallStart(t *testing.T) {
	var s []int64
	New(&s)
	if cap(s) != firstChunk {
		t.Fatalf("first chunk = %d values, want %d", cap(s), firstChunk)
	}
	for len(s) < cap(s) {
		New(&s)
	}
	New(&s)
	if cap(s) != 2*firstChunk {
		t.Fatalf("second chunk = %d values, want %d", cap(s), 2*firstChunk)
	}
}

func TestSlabsNeverShareChunks(t *testing.T) {
	type span struct{ lo, hi uintptr }
	var a, b []int
	var chunks []span
	var pb []*int
	for i := 0; i < 5000; i++ {
		p, q := New(&a), New(&b)
		*p, *q = i, -i
		if len(a) == 1 {
			lo := uintptr(unsafe.Pointer(p))
			chunks = append(chunks, span{lo, lo + uintptr(cap(a))*unsafe.Sizeof(i)})
		}
		pb = append(pb, q)
	}
	for i, q := range pb {
		addr := uintptr(unsafe.Pointer(q))
		for _, c := range chunks {
			if addr >= c.lo && addr < c.hi {
				t.Fatalf("value %d of one slab lies in a chunk of the other", i)
			}
		}
		if *q != -i {
			t.Fatalf("value %d overwritten: %d", i, *q)
		}
	}
}
