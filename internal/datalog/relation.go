package datalog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bdd"
)

// Relation is a set of tuples over the physical domain instances of its
// schema, stored as a BDD.
type Relation struct {
	p     *Program
	Name  string
	attrs []Attr
	node  bdd.Node
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Attrs returns a copy of the schema.
func (r *Relation) Attrs() []Attr { return append([]Attr(nil), r.attrs...) }

func (r *Relation) tupleBDD(vals []uint64) bdd.Node {
	if len(vals) != len(r.attrs) {
		panic(fmt.Sprintf("datalog: %s arity %d, got %d values", r.Name, len(r.attrs), len(vals)))
	}
	n := bdd.True
	for i, v := range vals {
		inst := r.attrs[i].Dom.Instance(r.attrs[i].Inst)
		n = r.p.M.And(n, inst.Eq(v))
	}
	return n
}

// Add inserts one tuple. It reports whether the tuple was new.
func (r *Relation) Add(vals ...uint64) bool {
	t := r.tupleBDD(vals)
	merged := r.p.M.Or(r.node, t)
	if merged == r.node {
		return false
	}
	r.node = merged
	return true
}

// Has reports whether the tuple is present.
func (r *Relation) Has(vals ...uint64) bool {
	t := r.tupleBDD(vals)
	return r.p.M.And(r.node, t) == t
}

// Count returns the number of tuples.
func (r *Relation) Count() uint64 {
	return r.p.countTuples(r.node, r.attrs)
}

// countTuples counts the tuples of a BDD node ranging over the given
// schema — Relation.Count, but usable on intermediate nodes too (the
// trace layer counts semi-naive deltas this way). SatCount walks
// memoized subgraphs without touching the manager's shared op caches or
// creating nodes, so counting is invisible to reported BDD statistics.
func (p *Program) countTuples(n bdd.Node, attrs []Attr) uint64 {
	if n == bdd.False {
		return 0
	}
	bits := 0
	for _, a := range attrs {
		bits += len(a.Dom.Instance(a.Inst).Vars())
	}
	total := p.M.SatCount(n)
	// SatCount ranges over every allocated variable; divide out the
	// unconstrained ones. Ldexp scales by an exact power of two, so the
	// division stays precise even past 64 free variables.
	free := p.M.NumVars() - bits
	return uint64(math.Round(math.Ldexp(total, -free)))
}

// Each enumerates tuples in an unspecified order. Return false from fn
// to stop early. The tuple slice is reused across calls.
func (r *Relation) Each(fn func(tuple []uint64) bool) {
	if r.node == bdd.False {
		return
	}
	insts := make([]*bdd.Domain, len(r.attrs))
	var vars []int
	for i, a := range r.attrs {
		insts[i] = a.Dom.Instance(a.Inst)
		vars = append(vars, insts[i].Vars()...)
	}
	sort.Ints(vars)
	tuple := make([]uint64, len(r.attrs))
	seen := make(map[string]bool)
	key := make([]byte, 0, len(r.attrs)*8)
	r.p.M.AllSat(r.node, vars, func(a []bool) bool {
		for i, inst := range insts {
			tuple[i] = inst.Decode(vars, a)
		}
		// AllSat can repeat a projection when the node constrains
		// variables outside vars (never for well-formed relations) or
		// enumerate legal duplicates via unconstrained bits; dedupe.
		key = key[:0]
		for _, v := range tuple {
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(v>>s))
			}
		}
		k := string(key)
		if seen[k] {
			return true
		}
		seen[k] = true
		return fn(tuple)
	})
}

// Tuples returns all tuples as a slice (for tests and reports).
func (r *Relation) Tuples() [][]uint64 {
	var out [][]uint64
	r.Each(func(t []uint64) bool {
		out = append(out, append([]uint64(nil), t...))
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// renameKey identifies one (src instance → dst instance) rename; the
// apparatus below is deterministic per key, so the program caches it.
type renameKey struct{ src, dst *bdd.Domain }

// renameOps is the cached constraint apparatus of one rename: the
// src==dst equality BDD and the src quantification cube. BDD nodes are
// stable indices, so the cache never needs invalidation.
type renameOps struct{ eq, cube bdd.Node }

// renameInstance moves one column of n from physical instance src to
// dst using a constraint-based rename (robust against any variable
// order): result = exists src. (n AND src==dst). The equality and cube
// BDDs are built once per (src, dst) pair and reused — rule evaluation
// renames every atom column on every derive call, so rebuilding them
// each time dominated rule setup cost.
func (p *Program) renameInstance(n bdd.Node, src, dst *bdd.Domain) bdd.Node {
	if src == dst {
		return n
	}
	key := renameKey{src, dst}
	ops, ok := p.renames[key]
	if !ok {
		ops = renameOps{eq: src.EqDomain(dst), cube: src.Cube()}
		p.renames[key] = ops
	}
	return p.M.AndExists(n, ops.eq, ops.cube)
}
