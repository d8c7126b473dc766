package bdd

// Lossy, direct-mapped operation caches, after BuDDy's BddCache: a
// fixed-size array of entries indexed by a hash of the operands. A
// collision simply overwrites the previous occupant — memoization
// here is a performance hint, never a correctness requirement, so
// losing an entry only costs a recomputation. Each entry records
// whether it was ever written, so a zeroed slot never matches.
//
// Entries never need invalidation: node indices are stable across
// node-table growth, and a Manager's caches live as long as it does.

// binEntry caches one (op, a, b) -> res binary operation.
type binEntry struct {
	a, b Node
	res  Node
	op   opcode
	full bool
}

type binCache struct {
	entries []binEntry
	mask    uint32
}

func newBinCache(slots int) binCache {
	return binCache{entries: make([]binEntry, slots), mask: uint32(slots - 1)}
}

func (c *binCache) lookup(op opcode, a, b Node) (Node, bool) {
	e := &c.entries[(hash3(int32(op), a, b))&c.mask]
	if e.full && e.op == op && e.a == a && e.b == b {
		return e.res, true
	}
	return False, false
}

func (c *binCache) store(op opcode, a, b, res Node) {
	*(&c.entries[(hash3(int32(op), a, b))&c.mask]) = binEntry{a: a, b: b, res: res, op: op, full: true}
}

// tripleEntry caches one (x, y, z) -> res ternary operation. The
// Exists (cube in y, z=0) and AndExists (cube in z) caches share this
// shape, each in its own array.
type tripleEntry struct {
	x, y, z Node
	res     Node
	full    bool
}

type tripleCache struct {
	entries []tripleEntry
	mask    uint32
}

func newTripleCache(slots int) tripleCache {
	return tripleCache{entries: make([]tripleEntry, slots), mask: uint32(slots - 1)}
}

func (c *tripleCache) lookup(x, y, z Node) (Node, bool) {
	e := &c.entries[hash3(int32(x), y, z)&c.mask]
	if e.full && e.x == x && e.y == y && e.z == z {
		return e.res, true
	}
	return False, false
}

func (c *tripleCache) store(x, y, z, res Node) {
	*(&c.entries[hash3(int32(x), y, z)&c.mask]) = tripleEntry{x: x, y: y, z: z, res: res, full: true}
}

// satEntry caches one node's satCountRec value.
type satEntry struct {
	n    Node
	full bool
	res  float64
}

type satCache struct {
	entries []satEntry
	mask    uint32
}

func newSatCache(slots int) satCache {
	return satCache{entries: make([]satEntry, slots), mask: uint32(slots - 1)}
}

func (c *satCache) lookup(n Node) (float64, bool) {
	e := &c.entries[hash3(int32(n), 0, 0)&c.mask]
	if e.full && e.n == n {
		return e.res, true
	}
	return 0, false
}

func (c *satCache) store(n Node, res float64) {
	*(&c.entries[hash3(int32(n), 0, 0)&c.mask]) = satEntry{n: n, res: res, full: true}
}
