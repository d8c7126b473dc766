// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with finite-domain support.
//
// It is a from-scratch substitute for the BuDDy package the paper's
// RegionWiz prototype used to store context-sensitive relations
// (Section 5.2), and since the kernel rewrite it follows BuDDy's
// hot-path design: nodes are hash-consed in a flat array with an
// intrusive chained hash (table.go), all operations are memoized in
// fixed-size lossy caches (cache.go). Both are sized once, in this
// package, for every caller (see initialNodes). Structural equality of
// BDDs is index equality. The kernel has no garbage collection and no
// variable reordering: nodes live as long as their Manager, and a
// variable's level is its index.
//
// The package is deliberately stdlib-only and single-threaded; a
// Manager must not be shared between goroutines without external
// locking.
package bdd

import (
	"fmt"
	"math"
)

// Node is an index into a Manager's node table. The constants False and
// True are the two terminal nodes; all other values denote internal
// nodes. A Node is only meaningful relative to the Manager that created
// it.
type Node int32

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

const terminalLevel = math.MaxInt32

// opcode identifies a binary boolean operation for the memo cache.
// Each value is an apply-cache hash input, so renumbering one moves the
// kernel's counters.
type opcode uint8

const (
	opAnd   opcode = 0
	opOr    opcode = 1
	opDiff  opcode = 3 // a AND NOT b
	opBiimp opcode = 5
)

// Manager owns a node table and the operation caches. Create one with
// New, allocate variables with AddVar or domains with NewDomain, and
// build functions with Var, And, Or, Diff, etc.
type Manager struct {
	// The node table (see table.go): nodes[0:free] are live, mask is
	// len(nodes)-1 for bucket indexing.
	nodes []node
	free  int32
	mask  uint32

	// Operation caches (see cache.go), one array per operation family.
	applyCache  binCache
	existsCache tripleCache
	andExCache  tripleCache
	satRecCache satCache

	numVars int

	// Kernel counters, surfaced via Stats.
	cacheHits        uint64
	cacheMisses      uint64
	uniqueCollisions uint64
	grows            uint64

	// OnEvent, when non-nil, is called synchronously after each
	// node-table doubling with kind "grow", the live node count and the
	// table capacity. The trace layer hooks it to mark grows on the
	// timeline without this package importing it. The callback runs on
	// the (single-threaded) manager's goroutine and must not call back
	// into the manager.
	OnEvent func(kind string, nodes, capacity int)
}

// The kernel's sizing, the same for every Manager: an 8192-node table
// that doubles when full, and 8192-slot operation caches that never
// grow. Like the paper's prototype, which sizes BuDDy once for its
// corpus (Section 5.2), the kernel is not tuned per caller; sizing
// moves time and memory, never results. Both sizes are powers of two.
const (
	initialNodes = 1 << 13
	cacheSlots   = 1 << 13
)

// New returns a Manager with no variables. Variables are added with
// AddVar/AddVars or implicitly through NewDomain.
func New() *Manager { return newSized(initialNodes, cacheSlots) }

// newSized returns a Manager with the given initial node-table
// capacity and per-cache slot count, both powers of two.
func newSized(nodes, slots int) *Manager {
	m := &Manager{
		applyCache:  newBinCache(slots),
		existsCache: newTripleCache(slots),
		andExCache:  newTripleCache(slots),
		satRecCache: newSatCache(slots),
	}
	m.initTable(nodes)
	return m
}

// NumVars reports how many boolean variables have been allocated.
func (m *Manager) NumVars() int { return m.numVars }

// NumNodes reports the number of live entries in the node table,
// including the two terminals.
func (m *Manager) NumNodes() int { return int(m.free) }

// ManagerStats is a snapshot of the manager's footprint and kernel
// counters, exposed for pipeline metrics and benchmarks.
type ManagerStats struct {
	// Nodes is the live node count (including terminals); Capacity is
	// the allocated node-table size.
	Nodes    int
	Capacity int
	// Vars is the number of allocated boolean variables.
	Vars int
	// CacheSlots is the per-cache slot count.
	CacheSlots int
	// CacheHits and CacheMisses count operation-cache lookups across
	// all op caches (a miss is a recomputation).
	CacheHits, CacheMisses uint64
	// UniqueCollisions counts extra probes on the node table's hash
	// chains — the mk-path collision cost.
	UniqueCollisions uint64
	// Grows counts node-table doublings since creation.
	Grows uint64
}

// Stats reports the manager's current footprint and counters.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		Nodes:            int(m.free),
		Capacity:         len(m.nodes),
		Vars:             m.numVars,
		CacheSlots:       len(m.applyCache.entries),
		CacheHits:        m.cacheHits,
		CacheMisses:      m.cacheMisses,
		UniqueCollisions: m.uniqueCollisions,
		Grows:            m.grows,
	}
}

// AddVar allocates one fresh boolean variable and returns its index.
func (m *Manager) AddVar() int {
	v := m.numVars
	m.numVars++
	return v
}

// AddVars allocates n fresh variables and returns the index of the first.
func (m *Manager) AddVars(n int) int {
	v := m.numVars
	m.numVars += n
	return v
}

// Var returns the BDD for the single variable v.
func (m *Manager) Var(v int) Node {
	m.checkVar(v)
	return m.mk(int32(v), False, True)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
}

// And returns the conjunction of a and b.
func (m *Manager) And(a, b Node) Node { return m.apply(opAnd, a, b) }

// Or returns the disjunction of a and b.
func (m *Manager) Or(a, b Node) Node { return m.apply(opOr, a, b) }

// Diff returns a AND NOT b (set difference when BDDs encode sets).
func (m *Manager) Diff(a, b Node) Node { return m.apply(opDiff, a, b) }

// Biimp returns a IFF b.
func (m *Manager) Biimp(a, b Node) Node { return m.apply(opBiimp, a, b) }

// terminalCase resolves op on (possibly) terminal operands. ok reports
// whether the result is decided without recursion.
func terminalCase(op opcode, a, b Node) (Node, bool) {
	switch op {
	case opAnd:
		if a == False || b == False {
			return False, true
		}
		if a == True {
			return b, true
		}
		if b == True {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opOr:
		if a == True || b == True {
			return True, true
		}
		if a == False {
			return b, true
		}
		if b == False {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opDiff:
		if a == False || b == True {
			return False, true
		}
		if b == False {
			return a, true
		}
		if a == b {
			return False, true
		}
	case opBiimp:
		if a == b {
			return True, true
		}
		if a == True {
			return b, true
		}
		if b == True {
			return a, true
		}
	}
	return False, false
}

// commutative reports whether op's operands can be swapped; used to
// normalize cache keys.
func commutative(op opcode) bool {
	switch op {
	case opAnd, opOr, opBiimp:
		return true
	}
	return false
}

func (m *Manager) apply(op opcode, a, b Node) Node {
	if r, ok := terminalCase(op, a, b); ok {
		return r
	}
	if commutative(op) && a > b {
		a, b = b, a
	}
	if r, ok := m.applyCache.lookup(op, a, b); ok {
		m.cacheHits++
		return r
	}
	m.cacheMisses++
	na, nb := m.nodes[a], m.nodes[b]
	var level int32
	var a0, a1, b0, b1 Node
	switch {
	case na.level == nb.level:
		level, a0, a1, b0, b1 = na.level, na.low, na.high, nb.low, nb.high
	case na.level < nb.level:
		level, a0, a1, b0, b1 = na.level, na.low, na.high, b, b
	default:
		level, a0, a1, b0, b1 = nb.level, a, a, nb.low, nb.high
	}
	r := m.mk(level, m.apply(op, a0, b0), m.apply(op, a1, b1))
	m.applyCache.store(op, a, b, r)
	return r
}

// Cube returns the conjunction of the given variables, used as the
// quantification set for Exists/AndExists.
func (m *Manager) Cube(vars []int) Node {
	r := True
	for _, v := range vars {
		r = m.And(r, m.Var(v))
	}
	return r
}

// Exists existentially quantifies away every variable in cube from n.
// cube must be a positive cube (conjunction of variables), e.g. from
// Cube.
func (m *Manager) Exists(n, cube Node) Node {
	if n == False || n == True || cube == True {
		return n
	}
	if r, ok := m.existsCache.lookup(n, cube, 0); ok {
		m.cacheHits++
		return r
	}
	m.cacheMisses++
	nn := m.nodes[n]
	// Advance the cube past variables above n's root.
	c := cube
	for m.nodes[c].level < nn.level {
		c = m.nodes[c].high
		if c == True {
			m.existsCache.store(n, cube, 0, n)
			return n
		}
	}
	var r Node
	if m.nodes[c].level == nn.level {
		// Quantify this variable: OR of cofactors.
		r = m.Or(m.Exists(nn.low, m.nodes[c].high), m.Exists(nn.high, m.nodes[c].high))
	} else {
		r = m.mk(nn.level, m.Exists(nn.low, c), m.Exists(nn.high, c))
	}
	m.existsCache.store(n, cube, 0, r)
	return r
}

// AndExists computes Exists(cube, a AND b) without materializing the
// conjunction — the relational product at the heart of points-to
// propagation.
func (m *Manager) AndExists(a, b, cube Node) Node {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	if cube == True {
		return m.And(a, b)
	}
	if a == True {
		return m.Exists(b, cube)
	}
	if b == True {
		return m.Exists(a, cube)
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := m.andExCache.lookup(a, b, cube); ok {
		m.cacheHits++
		return r
	}
	m.cacheMisses++
	na, nb := m.nodes[a], m.nodes[b]
	level := na.level
	if nb.level < level {
		level = nb.level
	}
	a0, a1 := a, a
	if na.level == level {
		a0, a1 = na.low, na.high
	}
	b0, b1 := b, b
	if nb.level == level {
		b0, b1 = nb.low, nb.high
	}
	c := cube
	for m.nodes[c].level < level {
		c = m.nodes[c].high
	}
	var r Node
	if c != True && m.nodes[c].level == level {
		rest := m.nodes[c].high
		r = m.Or(m.AndExists(a0, b0, rest), m.AndExists(a1, b1, rest))
	} else {
		r = m.mk(level, m.AndExists(a0, b0, c), m.AndExists(a1, b1, c))
	}
	m.andExCache.store(a, b, cube, r)
	return r
}

// SatCount returns the number of satisfying assignments of n over all
// allocated variables.
func (m *Manager) SatCount(n Node) float64 {
	return math.Ldexp(m.satCountRec(n), m.levelOf(n))
}

func (m *Manager) levelOf(n Node) int {
	l := m.nodes[n].level
	if l == terminalLevel {
		return m.numVars
	}
	return int(l)
}

// satCountRec counts assignments over variables strictly below n's root
// level, normalized so multiplying by 2^rootLevel gives the full count.
// Scaling uses Ldexp (exact exponent manipulation) rather than
// math.Pow, which keeps counts over >64 variables cheap and precise.
func (m *Manager) satCountRec(n Node) float64 {
	if n == False {
		return 0
	}
	if n == True {
		return 1
	}
	if c, ok := m.satRecCache.lookup(n); ok {
		return c
	}
	nd := m.nodes[n]
	low := math.Ldexp(m.satCountRec(nd.low), m.levelOf(nd.low)-int(nd.level)-1)
	high := math.Ldexp(m.satCountRec(nd.high), m.levelOf(nd.high)-int(nd.level)-1)
	c := low + high
	m.satRecCache.store(n, c)
	return c
}

// AllSat invokes fn for every satisfying assignment of n restricted to
// the given variables (each must appear in increasing order). Variables
// outside the support of n are enumerated explicitly, so keep vars
// small. fn receives a slice valid only for the duration of the call;
// returning false stops enumeration early.
func (m *Manager) AllSat(n Node, vars []int, fn func(assignment []bool) bool) {
	for i := 1; i < len(vars); i++ {
		if vars[i-1] >= vars[i] {
			panic("bdd: AllSat vars must be strictly increasing")
		}
	}
	assign := make([]bool, len(vars))
	m.allSatRec(n, vars, 0, assign, fn)
}

func (m *Manager) allSatRec(n Node, vars []int, i int, assign []bool, fn func([]bool) bool) bool {
	if n == False {
		return true
	}
	if i == len(vars) {
		// Remaining support must be empty for a unique assignment over
		// vars; if n is not True some unmapped variable is constrained,
		// but the assignment over vars is still satisfying for some
		// extension, so report it.
		return fn(assign)
	}
	level := m.nodes[n].level
	v := int32(vars[i])
	switch {
	case n == True || level > v:
		// n does not constrain vars[i]: both values.
		assign[i] = false
		if !m.allSatRec(n, vars, i+1, assign, fn) {
			return false
		}
		assign[i] = true
		return m.allSatRec(n, vars, i+1, assign, fn)
	case level == v:
		nd := m.nodes[n]
		assign[i] = false
		if !m.allSatRec(nd.low, vars, i+1, assign, fn) {
			return false
		}
		assign[i] = true
		return m.allSatRec(nd.high, vars, i+1, assign, fn)
	default:
		// n tests a variable before vars[i]: branch on it without
		// recording.
		nd := m.nodes[n]
		if !m.allSatRec(nd.low, vars, i, assign, fn) {
			return false
		}
		return m.allSatRec(nd.high, vars, i, assign, fn)
	}
}
