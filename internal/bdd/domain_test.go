package bdd

import (
	"testing"
	"testing/quick"
)

func TestDomainEq(t *testing.T) {
	m := New()
	d := m.NewDomain("d", 10)
	if d.Size() != 10 || d.Name() != "d" {
		t.Fatal("domain metadata wrong")
	}
	for v := uint64(0); v < 10; v++ {
		n := d.Eq(v)
		if n == False {
			t.Fatalf("Eq(%d) unsatisfiable", v)
		}
		if got := m.SatCount(n); got != 1 {
			t.Fatalf("Eq(%d) has %v assignments over domain vars, want 1", v, got)
		}
	}
	// Distinct values are disjoint.
	if m.And(d.Eq(3), d.Eq(7)) != False {
		t.Fatal("Eq(3) AND Eq(7) satisfiable")
	}
}

func TestDomainEqOutOfRangePanics(t *testing.T) {
	m := New()
	d := m.NewDomain("d", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Eq did not panic")
		}
	}()
	d.Eq(4)
}

func TestDomainDecodeRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		m := New()
		d := m.NewDomain("d", 1<<12)
		v := uint64(raw) % (1 << 12)
		n := d.Eq(v)
		found := false
		ok := true
		m.AllSat(n, d.Vars(), func(a []bool) bool {
			found = true
			if d.Decode(d.Vars(), a) != v {
				ok = false
			}
			return true
		})
		return found && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEqDomain(t *testing.T) {
	m := New()
	ds := m.NewInterleavedDomains([]string{"a", "b"}, []uint64{8, 8})
	a, b := ds[0], ds[1]
	eq := a.EqDomain(b)
	// eq AND a=5 AND b=5 satisfiable; eq AND a=5 AND b=6 not.
	if m.And(eq, m.And(a.Eq(5), b.Eq(5))) == False {
		t.Fatal("EqDomain rejects equal values")
	}
	if m.And(eq, m.And(a.Eq(5), b.Eq(6))) != False {
		t.Fatal("EqDomain accepts unequal values")
	}
	// Exactly 8 diagonal tuples.
	if got := m.SatCount(eq); got != 8 {
		t.Fatalf("EqDomain satcount = %v, want 8", got)
	}
}

// TestDomainRename moves a value between domains the way the datalog
// engine renames a column: exists a. (n AND a==b).
func TestDomainRename(t *testing.T) {
	m := New()
	ds := m.NewInterleavedDomains([]string{"a", "b"}, []uint64{16, 16})
	a, b := ds[0], ds[1]
	n := a.Eq(11)
	r := m.AndExists(n, a.EqDomain(b), a.Cube())
	if r != b.Eq(11) {
		t.Fatal("rename of Eq(11) from a to b mismatch")
	}
}

func TestInterleavedRelationJoin(t *testing.T) {
	// A tiny end-to-end relational product: edge(a,b) AND edge2(b,c),
	// quantify b, expect the composed pairs.
	m := New()
	ds := m.NewInterleavedDomains([]string{"a", "b", "c"}, []uint64{8, 8, 8})
	a, b, c := ds[0], ds[1], ds[2]

	edgeAB := m.Or(
		m.And(a.Eq(1), b.Eq(2)),
		m.And(a.Eq(2), b.Eq(3)),
	)
	edgeBC := m.Or(
		m.Or(m.And(b.Eq(2), c.Eq(5)), m.And(b.Eq(3), c.Eq(6))),
		m.And(b.Eq(4), c.Eq(7)),
	)
	comp := m.AndExists(edgeAB, edgeBC, b.Cube())
	want := m.Or(
		m.And(a.Eq(1), c.Eq(5)),
		m.And(a.Eq(2), c.Eq(6)),
	)
	if comp != want {
		t.Fatal("relational product mismatch")
	}
}

func TestDomainSingleValue(t *testing.T) {
	m := New()
	d := m.NewDomain("unit", 1)
	if d.Eq(0) == False {
		t.Fatal("singleton domain Eq(0) unsatisfiable")
	}
	if len(d.Vars()) != 1 {
		t.Fatalf("singleton domain uses %d bits, want 1", len(d.Vars()))
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for size, want := range cases {
		if got := bitsFor(size); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", size, got, want)
		}
	}
}
