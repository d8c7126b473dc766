package bdd

import (
	"math"
	"math/rand"
	"testing"
)

// A map-backed reference BDD implementation, deliberately naive: a Go
// map as unique table, unbounded map memoization, and only the textbook
// recursions. The differential tests below drive the production kernel
// and this reference through identical random operation sequences and
// require structurally identical results — exercising the intrusive
// hash table, the lossy caches (whose collisions must only ever cost
// recomputation, never change answers), and table growth.

type refNode struct {
	level     int32
	low, high int
}

type refBDD struct {
	nodes   []refNode
	unique  map[refNode]int
	numVars int
}

func newRef(numVars int) *refBDD {
	r := &refBDD{unique: make(map[refNode]int), numVars: numVars}
	r.nodes = append(r.nodes,
		refNode{level: terminalLevel, low: 0, high: 0},
		refNode{level: terminalLevel, low: 1, high: 1})
	return r
}

func (r *refBDD) mk(level int32, low, high int) int {
	if low == high {
		return low
	}
	key := refNode{level, low, high}
	if n, ok := r.unique[key]; ok {
		return n
	}
	r.nodes = append(r.nodes, key)
	n := len(r.nodes) - 1
	r.unique[key] = n
	return n
}

func (r *refBDD) levelOf(n int) int32 { return r.nodes[n].level }

func (r *refBDD) variable(v int) int { return r.mk(int32(v), 0, 1) }

func (r *refBDD) apply(op func(a, b bool) bool, a, b int) int {
	if a <= 1 && b <= 1 {
		if op(a == 1, b == 1) {
			return 1
		}
		return 0
	}
	na, nb := r.nodes[a], r.nodes[b]
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
	return r.mk(level, r.apply(op, a0, b0), r.apply(op, a1, b1))
}

func (r *refBDD) and(a, b int) int   { return r.apply(func(x, y bool) bool { return x && y }, a, b) }
func (r *refBDD) or(a, b int) int    { return r.apply(func(x, y bool) bool { return x || y }, a, b) }
func (r *refBDD) diff(a, b int) int  { return r.apply(func(x, y bool) bool { return x && !y }, a, b) }
func (r *refBDD) biimp(a, b int) int { return r.apply(func(x, y bool) bool { return x == y }, a, b) }

// exists quantifies away one variable.
func (r *refBDD) exists1(n int, v int32) int {
	if n <= 1 {
		return n
	}
	nd := r.nodes[n]
	switch {
	case nd.level > v:
		return n
	case nd.level == v:
		return r.or(r.exists1(nd.low, v), r.exists1(nd.high, v))
	default:
		return r.mk(nd.level, r.exists1(nd.low, v), r.exists1(nd.high, v))
	}
}

func (r *refBDD) exists(n int, vars []int32) int {
	for _, v := range vars {
		n = r.exists1(n, v)
	}
	return n
}

// equalStructure checks that node a in the kernel manager and node b in
// the reference denote the same boolean function, by memoized
// simultaneous descent (both are canonical ROBDDs with the same
// variable order, so the DAGs must be isomorphic).
func equalStructure(t *testing.T, m *Manager, a Node, r *refBDD, b int) bool {
	t.Helper()
	type pair struct {
		a Node
		b int
	}
	seen := make(map[pair]bool)
	var walk func(a Node, b int) bool
	walk = func(a Node, b int) bool {
		if a == False || a == True || b <= 1 {
			return (a == True) == (b == 1) && (a == False) == (b == 0)
		}
		p := pair{a, b}
		if seen[p] {
			return true
		}
		seen[p] = true
		na, nb := m.nodes[a], r.nodes[b]
		if na.level != nb.level {
			return false
		}
		return walk(na.low, nb.low) && walk(na.high, nb.high)
	}
	return walk(a, b)
}

// TestDifferentialRandomOps drives the kernel and the reference through
// identical random operation sequences and checks every intermediate
// result structurally. A tiny node table forces table growth mid-run;
// tiny caches force constant lossy-cache eviction.
func TestDifferentialRandomOps(t *testing.T) {
	const numVars = 12
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Deliberately undersized: growth and cache collisions on every
		// run.
		m := newSized(1<<10, 1<<8)
		m.AddVars(numVars)
		ref := newRef(numVars)

		// Pools of corresponding (kernel, reference) function pairs.
		ks := []Node{False, True}
		rs := []int{0, 1}
		for v := 0; v < numVars; v++ {
			ks = append(ks, m.Var(v))
			rs = append(rs, ref.variable(v))
		}

		for step := 0; step < 400; step++ {
			i, j := rng.Intn(len(ks)), rng.Intn(len(ks))
			var kn Node
			var rn int
			switch op := rng.Intn(6); op {
			case 0:
				kn, rn = m.And(ks[i], ks[j]), ref.and(rs[i], rs[j])
			case 1:
				kn, rn = m.Or(ks[i], ks[j]), ref.or(rs[i], rs[j])
			case 2:
				kn, rn = m.Diff(ks[i], ks[j]), ref.diff(rs[i], rs[j])
			case 3:
				kn, rn = m.Biimp(ks[i], ks[j]), ref.biimp(rs[i], rs[j])
			case 4: // Exists over a random variable set
				var vars []int
				var rvars []int32
				for v := 0; v < numVars; v++ {
					if rng.Intn(4) == 0 {
						vars = append(vars, v)
						rvars = append(rvars, int32(v))
					}
				}
				kn, rn = m.Exists(ks[i], m.Cube(vars)), ref.exists(rs[i], rvars)
			case 5: // AndExists == Exists(And)
				var vars []int
				var rvars []int32
				for v := 0; v < numVars; v++ {
					if rng.Intn(4) == 0 {
						vars = append(vars, v)
						rvars = append(rvars, int32(v))
					}
				}
				kn = m.AndExists(ks[i], ks[j], m.Cube(vars))
				rn = ref.exists(ref.and(rs[i], rs[j]), rvars)
			}
			if !equalStructure(t, m, kn, ref, rn) {
				t.Fatalf("seed %d step %d: kernel and reference diverged", seed, step)
			}
			if got, want := m.SatCount(kn), ref.satCount(rn, numVars); got != want {
				t.Fatalf("seed %d step %d: SatCount = %v, reference = %v", seed, step, got, want)
			}
			ks = append(ks, kn)
			rs = append(rs, rn)
		}
		if st := m.Stats(); st.CacheMisses == 0 || st.UniqueCollisions == 0 {
			t.Fatalf("seed %d: run did not exercise the caches/table (stats %+v)", seed, st)
		}
	}
}

// TestTableGrowthPreservesResults builds a function too large for the
// 1024-node table, forcing geometric growth mid-construction, and checks
// the result against the reference. Node handles must stay valid across
// growth (indices are stable; only buckets rehash).
func TestTableGrowthPreservesResults(t *testing.T) {
	const numVars = 16
	rng := rand.New(rand.NewSource(7))
	m := newSized(1<<10, 1<<10)
	m.AddVars(numVars)
	ref := newRef(numVars)

	f, rf := False, 0
	for k := 0; k < 300; k++ {
		cube, rcube := True, 1
		for v := 0; v < numVars; v++ {
			if rng.Intn(2) == 0 {
				cube = m.And(cube, m.Var(v))
				rcube = ref.and(rcube, ref.variable(v))
			} else {
				cube = m.Diff(cube, m.Var(v))
				rcube = ref.diff(rcube, ref.variable(v))
			}
		}
		f = m.Or(f, cube)
		rf = ref.or(rf, rcube)
	}
	if st := m.Stats(); st.Grows == 0 {
		t.Fatalf("expected table growth past 1024 nodes (stats %+v)", st)
	}
	if !equalStructure(t, m, f, ref, rf) {
		t.Fatal("kernel and reference diverged after table growth")
	}
	if got, want := m.SatCount(f), ref.satCount(rf, numVars); got != want {
		t.Fatalf("SatCount after growth = %v, reference = %v", got, want)
	}
}

// satCount is the reference's exact model count over numVars variables.
func (r *refBDD) satCount(n int, numVars int) float64 {
	var level func(int) int32
	level = func(n int) int32 {
		if l := r.nodes[n].level; l != terminalLevel {
			return l
		}
		return int32(numVars)
	}
	memo := make(map[int]float64)
	var rec func(int) float64
	rec = func(n int) float64 {
		if n == 0 {
			return 0
		}
		if n == 1 {
			return 1
		}
		if c, ok := memo[n]; ok {
			return c
		}
		nd := r.nodes[n]
		c := rec(nd.low)*pow2(level(nd.low)-nd.level-1) +
			rec(nd.high)*pow2(level(nd.high)-nd.level-1)
		memo[n] = c
		return c
	}
	return rec(n) * pow2(level(n))
}

func pow2(e int32) float64 {
	out := 1.0
	for ; e > 0; e-- {
		out *= 2
	}
	return out
}

// TestSatCountManyVars checks SatCount beyond 64 variables, where the
// count exceeds uint64 range and only exact power-of-two scaling
// (Ldexp) keeps the float64 result precise.
func TestSatCountManyVars(t *testing.T) {
	const numVars = 100
	m := New()
	m.AddVars(numVars)

	if got, want := m.SatCount(True), math.Ldexp(1, numVars); got != want {
		t.Fatalf("SatCount(True) over %d vars = %v, want %v", numVars, got, want)
	}
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("SatCount(False) = %v, want 0", got)
	}
	// One constrained variable halves the count.
	if got, want := m.SatCount(m.Var(0)), math.Ldexp(1, numVars-1); got != want {
		t.Fatalf("SatCount(x0) = %v, want %v", got, want)
	}
	// A k-variable cube leaves numVars-k free: widely separated
	// variables exercise the per-level Ldexp gaps.
	cube := m.Cube([]int{0, 17, 42, 63, 64, 65, 99})
	if got, want := m.SatCount(cube), math.Ldexp(1, numVars-7); got != want {
		t.Fatalf("SatCount(7-cube) = %v, want %v", got, want)
	}
	// A chain of IFFs over k variables is satisfied by exactly half
	// the assignments of those variables.
	f := m.Var(3)
	for _, v := range []int{70, 96} {
		f = m.Biimp(f, m.Var(v))
	}
	if got, want := m.SatCount(f), math.Ldexp(1, numVars-1); got != want {
		t.Fatalf("SatCount(iff3) = %v, want %v", got, want)
	}
}

// TestDifferentialSatCount cross-checks SatCount against the
// reference's exact model count on random functions.
func TestDifferentialSatCount(t *testing.T) {
	const numVars = 10
	rng := rand.New(rand.NewSource(42))
	m := New()
	m.AddVars(numVars)
	for trial := 0; trial < 50; trial++ {
		// Random function as an OR of random minterm fragments.
		f := False
		for k := 0; k < 5; k++ {
			cube := True
			for v := 0; v < numVars; v++ {
				switch rng.Intn(3) {
				case 0:
					cube = m.And(cube, m.Var(v))
				case 1:
					cube = m.Diff(cube, m.Var(v))
				}
			}
			f = m.Or(f, cube)
		}
		// Count models by brute-force enumeration.
		want := 0
		for bits := 0; bits < 1<<numVars; bits++ {
			n := f
			for n != False && n != True {
				nd := m.nodes[n]
				if bits>>uint(nd.level)&1 == 1 {
					n = nd.high
				} else {
					n = nd.low
				}
			}
			if n == True {
				want++
			}
		}
		if got := m.SatCount(f); got != float64(want) {
			t.Fatalf("trial %d: SatCount = %v, brute force = %d", trial, got, want)
		}
	}
}
