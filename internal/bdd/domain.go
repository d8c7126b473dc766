package bdd

import "fmt"

// Domain is a finite domain encoded over a block of boolean variables,
// in the style of BuDDy's fdd layer. A Domain holds values 0..Size-1.
// Relations over tuples of domains are plain BDDs built with Eq and the
// boolean connectives.
type Domain struct {
	m    *Manager
	name string
	size uint64
	vars []int // variable indices, least-significant bit first
}

// NewDomain allocates a fresh domain with the given size (number of
// distinct values) using a contiguous block of variables. Domains
// allocated consecutively are therefore NOT bit-interleaved; use
// NewInterleavedDomains when two domains participate in equality or
// renaming-heavy relations (the paper's Section 6.3 observation that
// variable order dominates solver cost is real here, too).
func (m *Manager) NewDomain(name string, size uint64) *Domain {
	if size == 0 {
		panic("bdd: NewDomain size must be positive")
	}
	bits := bitsFor(size)
	first := m.AddVars(bits)
	d := &Domain{m: m, name: name, size: size, vars: make([]int, bits)}
	for i := 0; i < bits; i++ {
		d.vars[i] = first + i
	}
	return d
}

// NewInterleavedDomains allocates several domains of the given sizes
// with their variables bit-interleaved (bit k of every domain is
// adjacent). This is the order that keeps equality and renaming BDDs
// linear in the number of bits.
func (m *Manager) NewInterleavedDomains(names []string, sizes []uint64) []*Domain {
	if len(names) != len(sizes) {
		panic("bdd: NewInterleavedDomains length mismatch")
	}
	maxBits := 0
	bits := make([]int, len(sizes))
	for i, s := range sizes {
		if s == 0 {
			panic("bdd: NewInterleavedDomains size must be positive")
		}
		bits[i] = bitsFor(s)
		if bits[i] > maxBits {
			maxBits = bits[i]
		}
	}
	ds := make([]*Domain, len(sizes))
	for i := range sizes {
		ds[i] = &Domain{m: m, name: names[i], size: sizes[i], vars: make([]int, 0, bits[i])}
	}
	for b := 0; b < maxBits; b++ {
		for i := range ds {
			if b < bits[i] {
				ds[i].vars = append(ds[i].vars, m.AddVar())
			}
		}
	}
	return ds
}

func bitsFor(size uint64) int {
	bits := 1
	for (uint64(1) << bits) < size {
		bits++
	}
	return bits
}

// Name returns the domain's diagnostic name.
func (d *Domain) Name() string { return d.name }

// Size returns the number of values in the domain.
func (d *Domain) Size() uint64 { return d.size }

// Vars returns the variable indices of the domain, LSB first. The slice
// is owned by the Domain and must not be modified.
func (d *Domain) Vars() []int { return d.vars }

// Cube returns the quantification cube over all of the domain's bits.
func (d *Domain) Cube() Node { return d.m.Cube(d.vars) }

// Eq returns the BDD asserting the domain equals value.
func (d *Domain) Eq(value uint64) Node {
	if value >= d.size {
		panic(fmt.Sprintf("bdd: value %d out of domain %s [0,%d)", value, d.name, d.size))
	}
	r := True
	// Build bottom-up: highest variable index first so mk levels nest.
	idx := append([]int(nil), d.vars...)
	sortInts(idx)
	for i := len(idx) - 1; i >= 0; i-- {
		v := idx[i]
		bit := d.bitOf(v)
		if value&(1<<bit) != 0 {
			r = d.m.mk(int32(v), False, r)
		} else {
			r = d.m.mk(int32(v), r, False)
		}
	}
	return r
}

func (d *Domain) bitOf(variable int) int {
	for i, v := range d.vars {
		if v == variable {
			return i
		}
	}
	panic("bdd: variable not in domain")
}

// EqDomain returns the BDD asserting d equals other bit for bit. Both
// domains must have the same number of bits.
func (d *Domain) EqDomain(other *Domain) Node {
	if len(d.vars) != len(other.vars) {
		panic(fmt.Sprintf("bdd: EqDomain bit mismatch %s(%d) vs %s(%d)",
			d.name, len(d.vars), other.name, len(other.vars)))
	}
	r := True
	for i := range d.vars {
		r = d.m.And(r, d.m.Biimp(d.m.Var(d.vars[i]), d.m.Var(other.vars[i])))
	}
	return r
}

// Decode extracts the domain's value from an AllSat assignment over
// vars (the same strictly-increasing variable list passed to AllSat).
func (d *Domain) Decode(vars []int, assignment []bool) uint64 {
	var value uint64
	for i, v := range vars {
		if assignment[i] {
			for bit, dv := range d.vars {
				if dv == v {
					value |= 1 << bit
				}
			}
		}
	}
	return value
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
