package bdd

import (
	"math/rand"
	"runtime/metrics"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New()
	if m.Diff(True, True) != False || m.Diff(True, False) != True {
		t.Fatal("terminal negation broken")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("terminal and/or broken")
	}
	if m.NumNodes() != 2 {
		t.Fatalf("fresh manager has %d nodes, want 2", m.NumNodes())
	}
}

func TestVarBasics(t *testing.T) {
	m := New()
	x := m.AddVar()
	y := m.AddVar()
	vx, vy := m.Var(x), m.Var(y)
	if vx == vy {
		t.Fatal("distinct variables share a node")
	}
	if m.And(vx, m.Diff(True, vx)) != False {
		t.Fatal("x AND NOT x != false")
	}
	if m.Or(vx, m.Diff(True, vx)) != True {
		t.Fatal("x OR NOT x != true")
	}
	if m.And(vx, vx) != vx {
		t.Fatal("idempotence broken")
	}
	if got := m.And(vx, vy); got != m.And(vy, vx) {
		t.Fatal("And not commutative (hash consing broken)")
	}
}

func TestDeMorgan(t *testing.T) {
	m := New()
	x, y := m.Var(m.AddVar()), m.Var(m.AddVar())
	lhs := m.Diff(True, m.And(x, y))
	rhs := m.Or(m.Diff(True, x), m.Diff(True, y))
	if lhs != rhs {
		t.Fatal("De Morgan violated")
	}
}

func TestXorDiffImpBiimp(t *testing.T) {
	m := New()
	x, y := m.Var(m.AddVar()), m.Var(m.AddVar())
	if m.Biimp(x, y) != m.Diff(True, m.Or(m.Diff(x, y), m.Diff(y, x))) {
		t.Fatal("biimp != not symmetric difference")
	}
	if m.Diff(x, y) != m.And(x, m.Diff(True, y)) {
		t.Fatal("diff broken")
	}
}

// eval runs a BDD as a function of a full variable assignment.
func eval(m *Manager, n Node, env []bool) bool {
	for n != True && n != False {
		nd := m.nodes[n]
		if env[nd.level] {
			n = nd.high
		} else {
			n = nd.low
		}
	}
	return n == True
}

// randomBDD builds a random function over nvars variables.
func randomBDD(m *Manager, r *rand.Rand, nvars, depth int) Node {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			v := m.Var(r.Intn(nvars))
			if r.Intn(2) == 0 {
				return m.Diff(True, v)
			}
			return v
		}
	}
	a := randomBDD(m, r, nvars, depth-1)
	b := randomBDD(m, r, nvars, depth-1)
	switch r.Intn(4) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	case 2:
		return m.Biimp(a, b)
	default:
		return m.Diff(True, a)
	}
}

func TestPropertySemanticEquivalence(t *testing.T) {
	// For random formulas, the BDD must agree with direct evaluation
	// under every assignment (nvars small enough to enumerate).
	const nvars = 6
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.AddVars(nvars)
		a := randomBDD(m, r, nvars, 4)
		b := randomBDD(m, r, nvars, 4)
		and, or, biimp := m.And(a, b), m.Or(a, b), m.Biimp(a, b)
		diff, not := m.Diff(a, b), m.Diff(True, a)
		env := make([]bool, nvars)
		for bits := 0; bits < 1<<nvars; bits++ {
			for i := range env {
				env[i] = bits&(1<<i) != 0
			}
			ea, eb := eval(m, a, env), eval(m, b, env)
			if eval(m, and, env) != (ea && eb) {
				return false
			}
			if eval(m, or, env) != (ea || eb) {
				return false
			}
			if eval(m, biimp, env) != (ea == eb) {
				return false
			}
			if eval(m, diff, env) != (ea && !eb) {
				return false
			}
			if eval(m, not, env) != !ea {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCanonicity(t *testing.T) {
	// Semantically equal functions built along different syntactic
	// routes must be the identical node (ROBDD canonicity).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.AddVars(5)
		a := randomBDD(m, r, 5, 3)
		b := randomBDD(m, r, 5, 3)
		// (a OR b) == NOT(NOT a AND NOT b)
		if m.Or(a, b) != m.Diff(True, m.And(m.Diff(True, a), m.Diff(True, b))) {
			return false
		}
		// a IFF b == NOT((a OR b) DIFF (a AND b))
		if m.Biimp(a, b) != m.Diff(True, m.Diff(m.Or(a, b), m.And(a, b))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExists(t *testing.T) {
	m := New()
	x, y, z := m.AddVar(), m.AddVar(), m.AddVar()
	vx, vy, vz := m.Var(x), m.Var(y), m.Var(z)
	f := m.And(vx, m.Or(vy, vz))
	// Exists y: f == x AND (true OR z) == x ... wait: x AND (1 OR z) = x
	g := m.Exists(f, m.Cube([]int{y}))
	if g != vx {
		t.Fatalf("exists y (x AND (y OR z)) = %v, want x", g)
	}
	// Exists x: f == (y OR z)
	g = m.Exists(f, m.Cube([]int{x}))
	if g != m.Or(vy, vz) {
		t.Fatal("exists x mismatch")
	}
	// Quantifying all variables of a satisfiable function yields True.
	if m.Exists(f, m.Cube([]int{x, y, z})) != True {
		t.Fatal("exists all != true")
	}
	if m.Exists(False, m.Cube([]int{x})) != False {
		t.Fatal("exists over false != false")
	}
}

func TestPropertyExistsAgainstCofactors(t *testing.T) {
	// Exists v: f == f[v=0] OR f[v=1], checked by brute force.
	const nvars = 5
	f := func(seed int64, varIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.AddVars(nvars)
		n := randomBDD(m, r, nvars, 4)
		v := int(varIdx) % nvars
		q := m.Exists(n, m.Cube([]int{v}))
		env := make([]bool, nvars)
		for bits := 0; bits < 1<<nvars; bits++ {
			for i := range env {
				env[i] = bits&(1<<i) != 0
			}
			save := env[v]
			env[v] = false
			e0 := eval(m, n, env)
			env[v] = true
			e1 := eval(m, n, env)
			env[v] = save
			if eval(m, q, env) != (e0 || e1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAndExistsEqualsComposition(t *testing.T) {
	const nvars = 6
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.AddVars(nvars)
		a := randomBDD(m, r, nvars, 4)
		b := randomBDD(m, r, nvars, 4)
		cubeVars := []int{1, 3, 4}
		cube := m.Cube(cubeVars)
		return m.AndExists(a, b, cube) == m.Exists(m.And(a, b), cube)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSatCount(t *testing.T) {
	m := New()
	x, y, z := m.AddVar(), m.AddVar(), m.AddVar()
	if got := m.SatCount(True); got != 8 {
		t.Fatalf("satcount(true) = %v, want 8", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("satcount(false) = %v, want 0", got)
	}
	if got := m.SatCount(m.Var(x)); got != 4 {
		t.Fatalf("satcount(x) = %v, want 4", got)
	}
	f := m.And(m.Var(x), m.Or(m.Var(y), m.Var(z)))
	if got := m.SatCount(f); got != 3 {
		t.Fatalf("satcount(x AND (y OR z)) = %v, want 3", got)
	}
}

func TestPropertySatCountBruteForce(t *testing.T) {
	const nvars = 6
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.AddVars(nvars)
		n := randomBDD(m, r, nvars, 4)
		count := 0
		env := make([]bool, nvars)
		for bits := 0; bits < 1<<nvars; bits++ {
			for i := range env {
				env[i] = bits&(1<<i) != 0
			}
			if eval(m, n, env) {
				count++
			}
		}
		return m.SatCount(n) == float64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSat(t *testing.T) {
	m := New()
	x, y := m.AddVar(), m.AddVar()
	f := m.Diff(True, m.Biimp(m.Var(x), m.Var(y)))
	var got [][2]bool
	m.AllSat(f, []int{x, y}, func(a []bool) bool {
		got = append(got, [2]bool{a[0], a[1]})
		return true
	})
	if len(got) != 2 {
		t.Fatalf("xor has %d sat assignments over {x,y}, want 2", len(got))
	}
	for _, a := range got {
		if a[0] == a[1] {
			t.Fatalf("non-xor assignment %v reported", a)
		}
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := New()
	x, y := m.AddVar(), m.AddVar()
	calls := 0
	m.AllSat(True, []int{x, y}, func([]bool) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Var out of range did not panic")
		}
	}()
	m.Var(0)
}

// TestNewManagerFootprint pins what a fresh Manager allocates: the node
// table plus the four operation caches the analysis reads (apply,
// exists, and-exists and sat-count). Each table is a large object,
// which the runtime counts in /gc/heap/allocs:bytes as it is allocated,
// so the per-call figure is exact up to the Manager struct itself.
func TestNewManagerFootprint(t *testing.T) {
	// 8192 slots each: the node table at 20 B a node and the four
	// caches at no more than 20, 20, 20 and 16 B a slot come to 768
	// KiB. The rest is slack for the Manager struct.
	const limit = 768<<10 + 4<<10
	const calls = 16
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	managers := make([]*Manager, calls)
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	for i := range managers {
		managers[i] = New()
	}
	metrics.Read(sample)
	if per := (sample[0].Value.Uint64() - before) / calls; per > limit {
		t.Fatalf("New allocates %d bytes, want at most %d", per, limit)
	}
}
