// Package datalog implements a small deductive database over BDD-backed
// relations — a from-scratch substitute for the bddbddb system the
// paper's RegionWiz prototype used to solve its analysis rules
// (Section 5.1). Relations range over named logical domains; each
// relation attribute is bound to a numbered physical instance of its
// domain (in bddbddb terms, V0, V1, H0, ...). Rules are Horn clauses
// with optional negated body atoms (negation is stratified by the
// caller: a negated relation must be fully computed before rules that
// negate it run).
package datalog

import (
	"fmt"

	"repro/internal/bdd"
)

// Program owns the BDD manager, the logical domains, and the relations
// of one analysis run.
type Program struct {
	M       *bdd.Manager
	domains map[string]*LogicalDomain
	rels    map[string]*Relation
	// renames caches the per-(src,dst) rename apparatus (relation.go);
	// env is the reusable rule-evaluation scratch (rule.go).
	renames map[renameKey]renameOps
	env     *evalEnv
}

// NewProgram returns an empty program with a fresh BDD manager.
func NewProgram() *Program {
	return &Program{
		M:       bdd.New(),
		domains: make(map[string]*LogicalDomain),
		rels:    make(map[string]*Relation),
		renames: make(map[renameKey]renameOps),
	}
}

// LogicalDomain is a named finite domain (e.g. the paper's C, F, N
// domains for contexts, functions, and field offsets). Physical
// instances (C0, C1, ...) are allocated on demand.
type LogicalDomain struct {
	p    *Program
	Name string
	Size uint64

	insts   []*bdd.Domain
	scratch []*bdd.Domain
}

// Domain declares (or retrieves) a logical domain with the given size.
// Redeclaring an existing name with a different size is an error.
func (p *Program) Domain(name string, size uint64) *LogicalDomain {
	if d, ok := p.domains[name]; ok {
		if d.Size != size {
			panic(fmt.Sprintf("datalog: domain %s redeclared with size %d (was %d)", name, size, d.Size))
		}
		return d
	}
	d := &LogicalDomain{p: p, Name: name, Size: size}
	p.domains[name] = d
	return d
}

// instanceBatch is how many instances of a domain are allocated at
// once, bit-interleaved. Interleaving the instances of one logical
// domain keeps the equality/rename BDDs linear in the bit count —
// without it they are exponential, the variable-order effect the
// paper's Section 6.3 reports for bddbddb.
const instanceBatch = 4

// ensure grows both pools so index i is valid in each. Schema and
// scratch instances are allocated in one combined interleaved batch:
// rule evaluation renames columns between the two pools, so every
// (schema, scratch) pair must be pairwise interleaved.
func (d *LogicalDomain) ensure(i int) {
	for len(d.insts) <= i || len(d.scratch) <= i {
		names := make([]string, 2*instanceBatch)
		sizes := make([]uint64, 2*instanceBatch)
		for k := 0; k < instanceBatch; k++ {
			names[k] = fmt.Sprintf("%s%d", d.Name, len(d.insts)+k)
			names[instanceBatch+k] = fmt.Sprintf("%s#s%d", d.Name, len(d.scratch)+k)
			sizes[k] = d.Size
			sizes[instanceBatch+k] = d.Size
		}
		ds := d.p.M.NewInterleavedDomains(names, sizes)
		d.insts = append(d.insts, ds[:instanceBatch]...)
		d.scratch = append(d.scratch, ds[instanceBatch:]...)
	}
}

// Instance returns the i-th physical instance of the domain,
// allocating variables on demand in interleaved batches.
func (d *LogicalDomain) Instance(i int) *bdd.Domain {
	d.ensure(i)
	return d.insts[i]
}

// scratchInstance returns the i-th scratch instance, the pool holding
// rule-evaluation variables.
func (d *LogicalDomain) scratchInstance(i int) *bdd.Domain {
	d.ensure(i)
	return d.scratch[i]
}

// Attr names one attribute of a relation: a logical domain plus the
// physical instance index the relation stores that column in.
type Attr struct {
	Dom  *LogicalDomain
	Inst int
}

// A convenience constructor: domain d, instance i.
func (d *LogicalDomain) At(i int) Attr { return Attr{Dom: d, Inst: i} }

// Relation declares (or retrieves) a relation with the given schema.
func (p *Program) Relation(name string, attrs ...Attr) *Relation {
	if r, ok := p.rels[name]; ok {
		if len(r.attrs) != len(attrs) {
			panic(fmt.Sprintf("datalog: relation %s redeclared with different arity", name))
		}
		for i := range attrs {
			if r.attrs[i] != attrs[i] {
				panic(fmt.Sprintf("datalog: relation %s redeclared with different schema", name))
			}
		}
		return r
	}
	seen := make(map[*bdd.Domain]bool)
	for _, a := range attrs {
		inst := a.Dom.Instance(a.Inst)
		if seen[inst] {
			panic(fmt.Sprintf("datalog: relation %s repeats physical instance %s", name, inst.Name()))
		}
		seen[inst] = true
	}
	r := &Relation{p: p, Name: name, attrs: attrs, node: bdd.False}
	p.rels[name] = r
	return r
}

// NodeCount reports the size of the program's BDD node table — the
// shared cost metric of every relation the program holds (the
// "number of BDD nodes" the paper's Section 6.3 discussion tracks
// when comparing variable orders).
func (p *Program) NodeCount() int { return p.M.NumNodes() }

// TupleCount sums the tuple counts of every declared relation. Unlike
// NodeCount it measures logical size: two relations sharing BDD
// structure count their tuples separately.
func (p *Program) TupleCount() uint64 {
	var n uint64
	for _, r := range p.rels {
		n += r.Count()
	}
	return n
}
