package core

import (
	"context"
	"sort"

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

// computeObjectPairs verifies the non-access property against region
// pairs with no subregion partial order. The explicit backend checks
// each σ edge directly (equivalent to materializing regionPair and
// joining, but linear in |σ|); the BDD backend runs the paper's
// Datalog rules and is cross-checked in tests.
func (a *Analysis) computeObjectPairs(ctx context.Context) []ObjectPair {
	if a.Opts.Solver.Backend == BDDBackend {
		return a.computeObjectPairsBDD(ctx)
	}
	var out []ObjectPair
	for _, e := range a.AccessEdges {
		if p, bad := a.checkEdge(e); bad {
			out = append(out, p)
		}
	}
	sortPairs(out)
	return out
}

// checkEdge decides whether one access edge is inconsistent and, if
// so, builds its ObjectPair with evidence and rank. The Section 5.4
// ranking keys on the witnessing region pair: the pair is high-ranked
// when some offending owner pair (x, y) never has the subregion
// relation in either direction — which is why the paper's Figure 9
// case (pool/subpool, related but inverted) ranks low while its
// Section 6.2 false positive (a fresh pool vs. an unrelated one) and
// the sibling-region bugs rank high.
func (a *Analysis) checkEdge(e AccessEdge) (ObjectPair, bool) {
	srcOwners := a.ownersOf(e.Src)
	dstOwners := a.ownersOf(e.Dst)
	bad := false
	high := false
	var evidence [2]int
	refine := a.Opts.DefUseRefinement && a.sameVarWitness(0, e.Src, e.Dst)
	for _, x := range srcOwners {
		for _, y := range dstOwners {
			if a.Leq(x, y) {
				continue
			}
			if a.Opts.DefUseRefinement && (refine || a.sameVarWitness(x, e.Src, e.Dst)) {
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
		Src: e.Src, Off: e.Off, Dst: e.Dst,
		Evidence: evidence,
		High:     high,
	}, true
}

func sortPairs(ps []ObjectPair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Src != ps[j].Src {
			return ps[i].Src < ps[j].Src
		}
		if ps[i].Off != ps[j].Off {
			return ps[i].Off < ps[j].Off
		}
		return ps[i].Dst < ps[j].Dst
	})
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
	for _, e := range a.AccessEdges {
		access[[2]int{e.Src, e.Dst}] = true
	}
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

// condense folds context-sensitive object pairs to instruction pairs.
func (a *Analysis) condense(pairs []ObjectPair) []IPair {
	type key struct {
		src int
		off int64
		dst int
	}
	m := make(map[key]*IPair)
	var order []key
	for _, p := range pairs {
		k := key{a.siteOf(p.Src), p.Off, a.siteOf(p.Dst)}
		ip := m[k]
		if ip == nil {
			ip = &IPair{SrcSite: k.src, Off: k.off, DstSite: k.dst, Example: p}
			m[k] = ip
			order = append(order, k)
		}
		ip.Pairs++
		if p.High {
			ip.High = true
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.off != b.off {
			return a.off < b.off
		}
		return a.dst < b.dst
	})
	out := make([]IPair, 0, len(order))
	for _, k := range order {
		out = append(out, *m[k])
	}
	return out
}

// PairSite is one reported pair as source positions of the two
// allocation sites (used by the soundness property tests to match
// static reports against concrete executions).
type PairSite struct {
	Src, Dst cminor.Pos
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

func (a *Analysis) sitePos(obj int) cminor.Pos {
	o := a.Ptr.Objects[obj]
	if o.Kind == pointer.AllocObj && o.Site != nil {
		return o.Site.Pos
	}
	return cminor.Pos{}
}

// siteOf maps an object to its allocation instruction ID (or -1).
func (a *Analysis) siteOf(obj int) int {
	o := a.Ptr.Objects[obj]
	if o.Kind == pointer.AllocObj && o.Site != nil {
		return o.Site.ID
	}
	return -1
}
