package core

import (
	"context"
	"sort"

	"repro/internal/datalog"
	"repro/internal/trace"
)

// eachObjectPairBDD runs the inconsistency computation on the
// BDD-backed Datalog engine, mirroring the paper's bddbddb rules
// (Section 5.3.2):
//
//	leq(x, x)    :- region(x).
//	leq(x, y)    :- parent(x, y).
//	leq(x, z)    :- leq(x, y), parent(y, z).
//	regionPair(x, y) :- region(x), region(y), !leq(x, y).
//	objectPair(o1, n, o2) :- regionPair(x, y), own(x, o1), own(y, o2),
//	                         access(o1, n, o2).
//
// It visits the same object pairs as the explicit backend (asserted by
// tests), each once as it extracts them; the two differ only in how
// the relations are stored and joined. The result is the engine's
// final footprint and kernel counters, which the pairs phase reports;
// it is nil when there is nothing to verify and the engine never runs.
func (a *Analysis) eachObjectPairBDD(ctx context.Context, visit func(ObjectPair)) map[string]int64 {
	if a.accessEdges == 0 {
		return nil
	}
	// pairs.load covers building the program and its base relations.
	_, sl := trace.StartSpan(ctx, "pairs.load")
	// Offsets are interned into a dense domain.
	offIdx := make(map[int64]uint64)
	var offs []int64
	a.eachAccess(func(_ int, off int64, _ int) {
		if _, ok := offIdx[off]; !ok {
			offIdx[off] = uint64(len(offs))
			offs = append(offs, off)
		}
	})

	p := datalog.NewProgram()
	if sp := trace.SpanFromContext(ctx); sp != nil {
		p.M.OnEvent = func(kind string, nodes, capacity int) {
			sp.Event("bdd_"+kind, trace.Int("nodes", nodes), trace.Int("capacity", capacity))
		}
	}
	rr := a.declareRegionRels(p)
	or := a.declareObjectRels(p, rr, len(offs))
	a.loadRegionRels(rr)
	a.loadObjectRels(or, offIdx)
	sl.End()

	// Every stratum is solved semi-naively, as bddbddb evaluates rules:
	// the recursive leq closure only re-joins new tuples, and the two
	// non-recursive strata evaluate each rule exactly once. Each stratum
	// gets its own span so traces show which fixpoint dominates.
	// Stratum 1: the subregion partial order.
	sctx, s1 := trace.StartSpan(ctx, "pairs.stratum:leq")
	p.SolveSemiNaive(sctx, regionLeqRules(rr))
	s1.End()
	// Stratum 2: complement (safe, stratified negation).
	sctx, s2 := trace.StartSpan(ctx, "pairs.stratum:regionPair")
	p.SolveSemiNaive(sctx, regionPairRules(rr))
	s2.End()
	// Stratum 3: the verification join.
	sctx, s3 := trace.StartSpan(ctx, "pairs.stratum:objectPair")
	p.SolveSemiNaive(sctx, []*datalog.Rule{objectPairRule(or)})
	s3.End()

	st := p.M.Stats()
	counters := map[string]int64{
		"bdd_nodes":             int64(p.NodeCount()),
		"datalog_tuples":        int64(p.TupleCount()),
		"bdd_cache_hits":        int64(st.CacheHits),
		"bdd_cache_misses":      int64(st.CacheMisses),
		"bdd_unique_collisions": int64(st.UniqueCollisions),
		"bdd_table_grows":       int64(st.Grows),
	}

	_, sx := trace.StartSpan(ctx, "pairs.extract")
	or.objectPair.Each(func(t []uint64) bool {
		if p, bad := a.checkEdge(int(t[0]), offs[t[1]], int(t[2])); bad {
			visit(p)
		}
		return true
	})
	sx.End()
	return counters
}

// ruleText maps a rule's Name() to the paper's full Datalog rendering
// (Section 5.3.2) — the rule text explanation nodes carry.
var ruleText = map[string]string{
	"leq:-region":                           "leq(x,x) :- region(x).",
	"leq:-parent":                           "leq(x,y) :- parent(x,y).",
	"leq:-leq,parent":                       "leq(x,z) :- leq(x,y), parent(y,z).",
	"regionPair:-region,region,!leq":        "regionPair(x,y) :- region(x), region(y), !leq(x,y).",
	"objectPair:-regionPair,own,own,access": "objectPair(o1,n,o2) :- regionPair(x,y), own(x,o1), own(y,o2), access(o1,n,o2).",
}

// regionLeqRules builds stratum 1, the subregion closure. Explanations
// derive leq by walking the ancestor chain instead (explain.go), and
// name the rule in this order that fires first.
func regionLeqRules(rr regionRels) []*datalog.Rule {
	return []*datalog.Rule{
		datalog.NewRule(datalog.T(rr.leq, "x", "x"), datalog.T(rr.region, "x")),
		datalog.NewRule(datalog.T(rr.leq, "x", "y"), datalog.T(rr.parent, "x", "y")),
		datalog.NewRule(datalog.T(rr.leq, "x", "z"), datalog.T(rr.leq, "x", "y"), datalog.T(rr.parent, "y", "z")),
	}
}

// regionPairRules builds stratum 2, the stratified complement.
func regionPairRules(rr regionRels) []*datalog.Rule {
	return []*datalog.Rule{
		datalog.NewRule(datalog.T(rr.regionPair, "x", "y"),
			datalog.T(rr.region, "x"), datalog.T(rr.region, "y"), datalog.N(rr.leq, "x", "y")),
	}
}

// objectPairRule builds stratum 3, the verification join.
func objectPairRule(or objectRels) *datalog.Rule {
	return datalog.NewRule(datalog.T(or.objectPair, "o1", "n", "o2"),
		datalog.T(or.regionPair, "x", "y"),
		datalog.T(or.own, "x", "o1"),
		datalog.T(or.own, "y", "o2"),
		datalog.T(or.access, "o1", "n", "o2"))
}

// regionRels are the relations of the region strata.
type regionRels struct {
	region, parent, leq, regionPair *datalog.Relation
}

// objectRels are the relations of the verification join; regionPair
// is the region strata's result.
type objectRels struct {
	regionPair  *datalog.Relation
	own, access *datalog.Relation
	objectPair  *datalog.Relation
}

func (a *Analysis) declareRegionRels(p *datalog.Program) regionRels {
	R := p.Domain("R", uint64(len(a.Regions)))
	return regionRels{
		region:     p.Relation("region", R.At(0)),
		parent:     p.Relation("parent", R.At(0), R.At(1)),
		leq:        p.Relation("leq", R.At(0), R.At(1)),
		regionPair: p.Relation("regionPair", R.At(0), R.At(1)),
	}
}

func (a *Analysis) declareObjectRels(p *datalog.Program, rr regionRels, nOffs int) objectRels {
	R := rr.region.Attrs()[0].Dom
	O := p.Domain("O", uint64(len(a.Ptr.Objects)))
	N := p.Domain("N", uint64(nOffs))
	return objectRels{
		regionPair: rr.regionPair,
		own:        p.Relation("own", R.At(0), O.At(0)),
		access:     p.Relation("access", O.At(0), N.At(0), O.At(1)),
		objectPair: p.Relation("objectPair", O.At(0), N.At(0), O.At(1)),
	}
}

func (a *Analysis) loadRegionRels(rr regionRels) {
	for i := range a.Regions {
		rr.region.Add(uint64(i))
		if i != RootRegion {
			rr.parent.Add(uint64(i), uint64(a.Regions[i].Parent))
		}
	}
}

func (a *Analysis) loadObjectRels(or objectRels, offIdx map[int64]uint64) {
	// φ⁼: regions own themselves (as objects) plus their allocations.
	for i := 1; i < len(a.Regions); i++ {
		if a.Regions[i].Obj >= 0 {
			or.own.Add(uint64(i), uint64(a.Regions[i].Obj))
		}
	}
	// Sorted object order keeps the BDD insertion sequence (and so the
	// kernel's cache/node counters in the report) deterministic.
	objs := make([]int, 0, len(a.Owner))
	for obj := range a.Owner {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	for _, obj := range objs {
		for _, r := range a.Owner[obj] {
			or.own.Add(uint64(r), uint64(obj))
		}
	}
	// Non-region, non-allocated objects belong to the root (storage,
	// strings, malloc'ed memory) — only the ones that actually appear
	// as access targets matter.
	a.eachAccess(func(src int, off int64, dst int) {
		if _, isRegion := a.regionOf[dst]; !isRegion {
			if _, owned := a.Owner[dst]; !owned {
				or.own.Add(uint64(RootRegion), uint64(dst))
			}
		}
		or.access.Add(uint64(src), offIdx[off], uint64(dst))
	})
}
