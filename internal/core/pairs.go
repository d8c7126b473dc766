package core

import (
	"context"

	"repro/internal/cminor"
	"repro/internal/correlation"
	"repro/internal/pointer"
)

// ObjectPair is one inconsistency: object Src may hold a pointer at
// field offset Off to object Dst while some owner-region pair has no
// subregion partial order (the paper's objectPair relation).
type ObjectPair struct {
	Src int
	Off int64
	Dst int
	// Evidence is one offending owner-region pair (x, y) with x ⋢ y.
	Evidence [2]int
	// High is the Section 5.4 ranking: true when the owner regions
	// never have the subregion relation in either direction.
	High bool
}

// eachAccess calls fn on every σ edge in (Src, Off, Dst) order, the
// order of Ptr.EachHeap.
func (a *Analysis) eachAccess(fn func(src int, off int64, dst int)) {
	for obj := range a.Ptr.Objects {
		a.eachAccessFrom(obj, func(off int64, dst int) { fn(obj, off, dst) })
	}
}

// eachAccessFrom calls fn on σ's edges out of obj in (Off, Dst) order:
// none unless obj is region-allocated, and each (Off, Dst) once,
// although a heap cell holds one object at each of its offsets.
func (a *Analysis) eachAccessFrom(obj int, fn func(off int64, dst int)) {
	if !a.isRegionAllocated(obj) {
		return
	}
	lastOff, lastDst := int64(0), -1
	a.Ptr.EachHeapOf(obj, func(off int64, l pointer.Loc) {
		if off == lastOff && l.Obj == lastDst {
			return
		}
		lastOff, lastDst = off, l.Obj
		fn(off, l.Obj)
	})
}

// eachObjectPair verifies the non-access property against region
// pairs with no subregion partial order and calls visit on every
// inconsistent object pair. The explicit backend checks each σ edge
// directly (equivalent to materializing regionPair and joining, but
// linear in |σ|) and visits in (Src, Off, Dst) order; the BDD backend
// runs the paper's Datalog rules, is cross-checked in tests, and visits
// in the order it extracts the objectPair relation. The result holds
// the BDD engine's counters, nil on the explicit backend.
func (a *Analysis) eachObjectPair(ctx context.Context, visit func(ObjectPair)) map[string]int64 {
	if a.Opts.Solver.Backend == BDDBackend {
		return a.eachObjectPairBDD(ctx, visit)
	}
	a.eachAccess(func(src int, off int64, dst int) {
		if p, bad := a.checkEdge(src, off, dst); bad {
			visit(p)
		}
	})
	return nil
}

// checkEdge decides whether one access edge is inconsistent and, if
// so, builds its ObjectPair with evidence and rank. The Section 5.4
// ranking keys on the witnessing region pair: the pair is high-ranked
// when some offending owner pair (x, y) never has the subregion
// relation in either direction — which is why the paper's Figure 9
// case (pool/subpool, related but inverted) ranks low while its
// Section 6.2 false positive (a fresh pool vs. an unrelated one) and
// the sibling-region bugs rank high.
func (a *Analysis) checkEdge(src int, off int64, dst int) (ObjectPair, bool) {
	srcOwners := a.ownersOf(src)
	dstOwners := a.ownersOf(dst)
	bad := false
	high := false
	var evidence [2]int
	refine := a.Opts.DefUseRefinement && a.sameVarWitness(0, src, dst)
	for _, x := range srcOwners {
		for _, y := range dstOwners {
			if a.Leq(x, y) {
				continue
			}
			if a.Opts.DefUseRefinement && (refine || a.sameVarWitness(x, src, dst)) {
				// Figure 5(b): the witness is an artifact of
				// flow-insensitive region aliasing.
				continue
			}
			if !bad {
				evidence = [2]int{x, y}
			}
			bad = true
			if !a.Leq(y, x) {
				// This witness pair is unrelated in both directions.
				high = true
				evidence = [2]int{x, y}
			}
		}
	}
	if !bad {
		return ObjectPair{}, false
	}
	return ObjectPair{
		Src: src, Off: off, Dst: dst,
		Evidence: evidence,
		High:     high,
	}, true
}

// Correlation materializes the paper's Definition 4.1 instantiation
// ⟨p⁺̄, φ⁼, σ̄*⟩ over this analysis: F is the set of region pairs with
// no subregion partial order, Phi maps a region to the objects it owns
// (plus itself), and G is the must-not-access predicate. Its
// Violations() agree with the object-pair computation; the test suite
// checks that equivalence.
func (a *Analysis) Correlation() *correlation.Correlation[int, map[int]bool] {
	f := correlation.NewRelation[int]()
	for x := 1; x < len(a.Regions); x++ {
		for y := 1; y < len(a.Regions); y++ {
			if x != y && !a.Leq(x, y) {
				f.Add(x, y)
			}
		}
	}
	phi := func(r int) map[int]bool {
		set := map[int]bool{}
		if r > 0 && r < len(a.Regions) && a.Regions[r].Obj >= 0 {
			set[a.Regions[r].Obj] = true
		}
		for obj, owners := range a.Owner {
			for _, o := range owners {
				if o == r {
					set[obj] = true
				}
			}
		}
		return set
	}
	access := map[[2]int]bool{}
	a.eachAccess(func(src int, _ int64, dst int) { access[[2]int{src, dst}] = true })
	g := func(s, t map[int]bool) bool {
		for o1 := range s {
			for o2 := range t {
				if access[[2]int{o1, o2}] {
					return false
				}
			}
		}
		return true
	}
	return &correlation.Correlation[int, map[int]bool]{F: f, Phi: phi, G: g}
}

// --- post processing (Section 5.4) ---

// IPair is a context-insensitive instruction pair: object pairs
// condensed by (allocation site, offset, allocation site).
type IPair struct {
	SrcSite int // instruction ID of the source allocation (-1 for non-alloc objects)
	Off     int64
	DstSite int
	// High when any underlying object pair is high-ranked.
	High bool
	// Pairs counts the context-sensitive object pairs condensed here.
	Pairs int
	// Example keeps one representative ObjectPair for reporting.
	Example ObjectPair
}

// ipairKey is an instruction pair's key: source allocation site,
// offset, target allocation site.
type ipairKey struct {
	src int
	off int64
	dst int
}

// foldPair condenses one inconsistent object pair into its instruction
// pair as the pairs phase finds it: the I-pair counts the pair, is High
// when any of its pairs is, and keeps as Example its least pair in
// (Src, Off, Dst) order, whatever order the backend visits them in.
func (a *Analysis) foldPair(p ObjectPair) {
	a.objectPairs++
	k := ipairKey{a.siteOf(p.Src), p.Off, a.siteOf(p.Dst)}
	ip := a.ipairs[k]
	if ip == nil {
		ip = &IPair{SrcSite: k.src, Off: k.off, DstSite: k.dst, Example: p}
		a.ipairs[k] = ip
	} else if e := ip.Example; p.Src < e.Src || p.Src == e.Src && (p.Off < e.Off || p.Off == e.Off && p.Dst < e.Dst) {
		ip.Example = p
	}
	ip.Pairs++
	ip.High = ip.High || p.High
}

// PairSite is one reported pair as source positions of the two
// allocation sites (used by the soundness property tests to match
// static reports against concrete executions).
type PairSite struct {
	Src, Dst cminor.FilePos
}

// PairSites returns the allocation-site position pairs of every
// reported warning.
func (a *Analysis) PairSites() []PairSite {
	var out []PairSite
	for _, w := range a.Report.Warnings {
		ip := w.IPair
		out = append(out, PairSite{
			Src: a.sitePos(ip.Example.Src),
			Dst: a.sitePos(ip.Example.Dst),
		})
	}
	return out
}

func (a *Analysis) sitePos(obj int) cminor.FilePos {
	o := a.Ptr.Objects[obj]
	if o.Kind == pointer.AllocObj {
		return a.Prog.Instr(int(o.Site)).Pos()
	}
	return cminor.FilePos{}
}

// siteOf maps an object to its allocation instruction ID (or -1).
func (a *Analysis) siteOf(obj int) int {
	o := a.Ptr.Objects[obj]
	if o.Kind == pointer.AllocObj {
		return int(o.Site)
	}
	return -1
}
