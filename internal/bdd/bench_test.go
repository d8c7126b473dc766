package bdd

import (
	"math/rand"
	"testing"
)

// The microbenchmarks build everything from a fresh Manager inside the
// timed loop so each iteration exercises the node table and operation
// caches from cold — the regime the analysis pipeline runs in (one
// manager per datalog.Program). They use only the exported API, so the
// same file benchmarks the map-based and the BuDDy-style kernels for
// benchstat comparison.

// benchRelation builds a relation of random tuples over the given
// domains — the workload shape of the datalog engine (sparse tuple
// sets over interleaved finite domains), which keeps BDD sizes linear
// rather than exploding the way random boolean functions do.
func benchRelation(m *Manager, r *rand.Rand, doms []*Domain, tuples int) Node {
	rel := False
	for i := 0; i < tuples; i++ {
		t := True
		for _, d := range doms {
			t = m.And(t, d.Eq(uint64(r.Intn(int(d.Size())))))
		}
		rel = m.Or(rel, t)
	}
	return rel
}

// BenchmarkApply measures the binary-operation path — hash-consed mk
// plus the apply cache — over union/intersection/difference chains on
// sparse relations, the explicit-backend op mix.
func BenchmarkApply(b *testing.B) {
	b.ReportAllocs()
	const size = 1024
	for i := 0; i < b.N; i++ {
		m := New()
		ds := m.NewInterleavedDomains([]string{"a", "b"}, []uint64{size, size})
		r := rand.New(rand.NewSource(7))
		rels := make([]Node, 24)
		for j := range rels {
			rels[j] = benchRelation(m, r, ds, 64)
		}
		union, inter := False, True
		for _, rel := range rels {
			union = m.Or(union, rel)
			inter = m.And(inter, m.Or(rel, rels[0]))
		}
		for j := 0; j < len(rels)-1; j++ {
			_ = m.Diff(rels[j], rels[j+1])
			_ = m.Biimp(rels[j], union)
		}
		if union == False {
			b.Fatal("degenerate union")
		}
		_ = inter
	}
}

// BenchmarkRelProd measures AndExists — the relational product at the
// heart of points-to propagation: one transitive-closure step
// path(a,c) = exists b. edge(a,b) AND edge2(b,c) over interleaved
// finite domains, the exact shape of the datalog engine's joins.
func BenchmarkRelProd(b *testing.B) {
	b.ReportAllocs()
	const size = 512
	const edges = 400
	for i := 0; i < b.N; i++ {
		m := New()
		ds := m.NewInterleavedDomains([]string{"a", "b", "c"}, []uint64{size, size, size})
		da, db, dc := ds[0], ds[1], ds[2]
		r := rand.New(rand.NewSource(11))
		rel1 := benchRelation(m, r, []*Domain{da, db}, edges)
		rel2 := benchRelation(m, r, []*Domain{db, dc}, edges)
		prod := m.AndExists(rel1, rel2, db.Cube())
		// One more product through the result keeps the caches honest.
		_ = m.AndExists(prod, rel2, dc.Cube())
	}
}

// BenchmarkExists measures plain existential quantification: column
// projection over a two-attribute relation.
func BenchmarkExists(b *testing.B) {
	b.ReportAllocs()
	const size = 1024
	for i := 0; i < b.N; i++ {
		m := New()
		ds := m.NewInterleavedDomains([]string{"a", "b"}, []uint64{size, size})
		r := rand.New(rand.NewSource(17))
		rels := make([]Node, 16)
		for j := range rels {
			rels[j] = benchRelation(m, r, ds, 96)
		}
		cubeA, cubeB := ds[0].Cube(), ds[1].Cube()
		for _, rel := range rels {
			_ = m.Exists(rel, cubeA)
			_ = m.Exists(rel, cubeB)
		}
	}
}
