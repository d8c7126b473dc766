package pointer

import (
	"context"
	"sort"

	"repro/internal/contexts"
	"repro/internal/datalog"
	"repro/internal/ir"
	"repro/internal/trace"
)

// AnalyzeBDD runs a context-insensitive, field-sensitive Andersen
// analysis entirely as Datalog rules over BDD-backed relations — the
// way the paper's prototype computed its points-to sets in bddbddb
// (Section 5.2). It exists as a cross-check and scaling reference for
// the explicit solver; tests assert both agree under the explicit
// solver's context-insensitive configuration (cap=1, no heap cloning).
//
// Relations (paper naming):
//
//	vP(v, h)        variable v may point to location h
//	heap(h, f, h2)  field f of h may point to h2
//	assign(d, s)    d = s                  (ASSIGN, call/return wiring)
//	loadI(d, b, f)  d = [b + f]            (LOAD)
//	storeI(b, f, s) [b + f] = s            (STORE)
//	addr(d, h)      d = &h / d = alloc     (ADDR, allocation calls)
//	fieldAddr(d, b, f)  d = b + f          (ADD)
//
// Rules:
//
//	vP(d, h)      :- addr(d, h).
//	vP(d, h)      :- assign(d, s), vP(s, h).
//	vP(d, h2)     :- loadI(d, b, f), vP(b, h), heap(h, f, h2).
//	heap(h, f, h2):- storeI(b, f, s), vP(b, h), vP(s, h2).
//	vP(d, h2)     :- fieldAddr(d, b, f), vP(b, h2).   [offset-composed below]
//
// Locations are (object, offset) pairs interned into one flat domain,
// so field-addressed pointers compose exactly as in the explicit
// solver.
type BDDResult struct {
	Prog *ir.Program

	// Objects mirrors Result.Objects (the same interning scheme with
	// Ctx always 0).
	Objects []Obj

	vp   map[int32]map[Loc]bool
	heap map[heapKey]map[Loc]bool

	Rounds int

	// TopID is the tainted ⊤ object's ID when Config.PtsLimit > 0
	// (-1 otherwise); CappedVars counts the variables whose read-out
	// sets were collapsed to {⊤}. The relational solve itself runs
	// uncapped; the cap is applied to the read-out, which keeps the
	// BDD fixpoint monotone and the capped sets deterministic.
	TopID      int
	CappedVars int
}

// AnalyzeBDD computes the relational points-to result. cfg's
// HeapCloning flag is ignored (always off — objects are per site).
// When ctx carries a trace.Tracer, the datalog fixpoint emits
// per-rule, per-round spans and BDD table grows become trace events.
func AnalyzeBDD(ctx context.Context, n *contexts.Numbering, cfg Config) *BDDResult {
	prog := n.G.Prog
	br := &BDDResult{
		Prog:  prog,
		vp:    make(map[int32]map[Loc]bool),
		heap:  make(map[heapKey]map[Loc]bool),
		TopID: -1,
	}

	// --- collect constraints from the IR, context-insensitively ---
	objID := make(map[Obj]int)
	intern := func(o Obj) int {
		if id, ok := objID[o]; ok {
			return id
		}
		id := len(br.Objects)
		br.Objects = append(br.Objects, o)
		objID[o] = id
		return id
	}
	if cfg.PtsLimit > 0 {
		// Interned first, like the explicit solver, so ⊤ is ID 0.
		br.TopID = intern(Obj{Kind: TopObj})
	}

	// Variables are program IDs; the synthetic variable standing for
	// an out-allocated object o is -1-o.
	type assignC struct{ d, s int32 }
	type addrC struct {
		d   int32
		obj int
	}
	type loadC struct {
		d, b int32
		f    int64
	}
	type storeC struct {
		b int32
		f int64
		s int32
	}
	type faddrC struct {
		d, b int32
		f    int64
	}
	var assigns []assignC
	var addrs []addrC
	var loads []loadC
	var stores []storeC
	var faddrs []faddrC
	var takenVars []int32

	varOf := func(o ir.Opd) (int32, bool) {
		return o.Var, o.Kind == ir.VarOpd
	}
	externNames := func(in *ir.Inst) []string {
		switch in.Callee().Kind {
		case ir.FuncOpd:
			if _, defined := prog.Funcs[in.Callee().Fn]; !defined {
				return []string{in.Callee().Fn}
			}
		case ir.VarOpd:
			var out []string
			for fn := range n.G.VF[in.Callee().Var] {
				if _, defined := prog.Funcs[fn]; !defined {
					out = append(out, fn)
				}
			}
			sort.Strings(out)
			return out
		}
		return nil
	}

	for _, fnName := range n.G.ReachableFuncs() {
		f := prog.Funcs[fnName]
		c := prog.Cursor(f.First, f.End)
		for c.Next() {
			in := c.Inst
			switch in.Op {
			case ir.Assign:
				if d, ok := varOf(in.Dst()); ok {
					if s, ok := varOf(in.Src()); ok {
						assigns = append(assigns, assignC{d, s})
					} else if in.Src().Kind == ir.StringOpd {
						addrs = append(addrs, addrC{d, intern(Obj{Kind: StringObj, Str: int(in.Src().C)})})
					}
				}
			case ir.Addr:
				if d, ok := varOf(in.Dst()); ok {
					v := in.Src().Var
					id := intern(Obj{Kind: VarStorageObj, Var: v})
					addrs = append(addrs, addrC{d, id})
					takenVars = append(takenVars, v)
				}
			case ir.FieldAddr:
				d, dok := varOf(in.Dst())
				if b, bok := varOf(in.Base()); dok && bok {
					faddrs = append(faddrs, faddrC{d, b, in.Off()})
				}
			case ir.Load:
				d, dok := varOf(in.Dst())
				if b, bok := varOf(in.Base()); dok && bok {
					loads = append(loads, loadC{d, b, in.Off()})
				}
			case ir.Store:
				b, bok := varOf(in.Base())
				if s, sok := varOf(in.Src()); bok && sok {
					stores = append(stores, storeC{b, in.Off(), s})
				}
			case ir.Call:
				// Defined callees: parameter/return assignment edges.
				for _, callee := range n.G.Edges[in.ID] {
					target := prog.Funcs[callee]
					if target == nil {
						continue
					}
					for i := 0; i < in.NumArgs() && i < target.NumParams; i++ {
						if s, ok := varOf(in.Arg(i)); ok {
							assigns = append(assigns, assignC{target.Param(i), s})
						}
					}
					if d, ok := varOf(in.Dst()); ok && target.RetVal >= 0 {
						assigns = append(assigns, assignC{d, target.RetVal})
					}
				}
				// Extern models.
				for _, name := range externNames(&in) {
					switch {
					case cfg.AllocFns[name]:
						id := intern(Obj{Kind: AllocObj, Site: int32(in.ID), Fn: name})
						if d, ok := varOf(in.Dst()); ok {
							addrs = append(addrs, addrC{d, id})
						}
					case hasKey(cfg.OutAllocFns, name):
						argIdx := cfg.OutAllocFns[name]
						id := intern(Obj{Kind: AllocObj, Site: int32(in.ID), Fn: name})
						if argIdx < in.NumArgs() {
							if b, ok := varOf(in.Arg(argIdx)); ok {
								// *b = fresh: a store of a synthetic
								// variable holding the object.
								tmp := int32(-1 - id)
								addrs = append(addrs, addrC{tmp, id})
								stores = append(stores, storeC{b, 0, tmp})
							}
						}
					case hasKey(cfg.ReturnArgFns, name):
						argIdx := cfg.ReturnArgFns[name]
						if argIdx < in.NumArgs() {
							d, dok := varOf(in.Dst())
							if s, sok := varOf(in.Arg(argIdx)); dok && sok {
								assigns = append(assigns, assignC{d, s})
							}
						}
					}
				}
			}
		}
	}

	// --- intern variables and (object, offset) locations ---
	varIdx := make(map[int32]uint64)
	var varList []int32
	vnum := func(v int32) uint64 {
		if i, ok := varIdx[v]; ok {
			return i
		}
		i := uint64(len(varList))
		varIdx[v] = i
		varList = append(varList, v)
		return i
	}
	locIdx := make(map[Loc]uint64)
	var locList []Loc
	lnum := func(l Loc) uint64 {
		if i, ok := locIdx[l]; ok {
			return i
		}
		i := uint64(len(locList))
		locIdx[l] = i
		locList = append(locList, l)
		return i
	}
	offIdx := make(map[int64]uint64)
	var offList []int64
	onum := func(f int64) uint64 {
		if i, ok := offIdx[f]; ok {
			return i
		}
		i := uint64(len(offList))
		offIdx[f] = i
		offList = append(offList, f)
		return i
	}

	// Seed the domains. Base locations appear as (obj, 0) from addr
	// constraints; fieldAddr shifts them; load/store instruction
	// offsets address cells relative to those. The location universe
	// is closed under two passes of fieldAddr shifts (dot chains are
	// composed statically by the lowering, so deeper chains do not
	// occur) plus one level of load/store offsets.
	for _, a := range addrs {
		vnum(a.d)
		lnum(Loc{Obj: a.obj})
	}
	for _, a := range assigns {
		vnum(a.d)
		vnum(a.s)
	}
	for _, l := range loads {
		vnum(l.d)
		vnum(l.b)
		onum(l.f)
	}
	for _, s := range stores {
		vnum(s.b)
		vnum(s.s)
		onum(s.f)
	}
	// Address-taken variables participate in the storage sync rules
	// even when they are only ever accessed through their address.
	for _, v := range takenVars {
		vnum(v)
	}
	shifts := map[int64]bool{}
	for _, fa := range faddrs {
		vnum(fa.d)
		vnum(fa.b)
		shifts[fa.f] = true
	}
	for pass := 0; pass < 2; pass++ {
		for _, base := range append([]Loc(nil), locList...) {
			for shift := range shifts {
				lnum(Loc{Obj: base.Obj, Off: base.Off + shift})
			}
		}
	}
	for _, base := range append([]Loc(nil), locList...) {
		for _, f := range offList {
			lnum(Loc{Obj: base.Obj, Off: base.Off + f})
		}
	}

	if len(varList) == 0 || len(locList) == 0 {
		return br
	}
	if len(offList) == 0 {
		offList = append(offList, 0)
		offIdx[0] = 0
	}

	// --- the datalog program ---
	p := datalog.NewProgram()
	if sp := trace.SpanFromContext(ctx); sp != nil {
		p.M.OnEvent = func(kind string, nodes, capacity int) {
			sp.Event("bdd_"+kind, trace.Int("nodes", nodes), trace.Int("capacity", capacity))
		}
	}
	V := p.Domain("V", uint64(len(varList)))
	H := p.Domain("H", uint64(len(locList)))
	F := p.Domain("F", uint64(len(offList)))

	vP := p.Relation("vP", V.At(0), H.At(0))
	// hP(hcell, h2): the cell at location hcell holds a pointer to
	// h2. Cells are fully composed locations, so the relation is
	// binary (field offsets are already folded in by cell).
	hP := p.Relation("heap", H.At(0), H.At(1))
	rAssign := p.Relation("assign", V.At(0), V.At(1))
	rLoad := p.Relation("load", V.At(0), V.At(1), F.At(0))
	rStore := p.Relation("store", V.At(0), F.At(0), V.At(1))
	// cell(h, f, hcell): location hcell is location h shifted by the
	// load/store offset f.
	cell := p.Relation("cell", H.At(0), F.At(0), H.At(1))

	for _, a := range addrs {
		vP.Add(vnum(a.d), lnum(Loc{Obj: a.obj}))
	}
	for _, a := range assigns {
		rAssign.Add(vnum(a.d), vnum(a.s))
	}
	for _, l := range loads {
		rLoad.Add(vnum(l.d), vnum(l.b), onum(l.f))
	}
	for _, s := range stores {
		rStore.Add(vnum(s.b), onum(s.f), vnum(s.s))
	}
	for _, l := range locList {
		for fi, f := range offList {
			if tgt, ok := locIdx[Loc{Obj: l.Obj, Off: l.Off + f}]; ok {
				cell.Add(locIdx[l], uint64(fi), tgt)
			}
		}
	}
	// fieldAddr: one assign-like relation per distinct shift, built as
	// shiftK(h, h2) edges joined with vP.
	type shiftRel struct {
		rel *datalog.Relation
		fas []faddrC
	}
	shiftRels := map[int64]*shiftRel{}
	for _, fa := range faddrs {
		sr := shiftRels[fa.f]
		if sr == nil {
			rel := p.Relation("shift"+itoa(fa.f), H.At(0), H.At(1))
			sr = &shiftRel{rel: rel}
			for _, l := range locList {
				if tgt, ok := locIdx[Loc{Obj: l.Obj, Off: l.Off + fa.f}]; ok {
					rel.Add(locIdx[l], tgt)
				}
			}
			shiftRels[fa.f] = sr
		}
		sr.fas = append(sr.fas, fa)
	}

	// varStore(v, hc): hc is the storage cell of the address-taken
	// variable v; direct uses of v and indirect uses through &v must
	// agree (the sync the explicit solver does imperatively).
	varStore := p.Relation("varStore", V.At(0), H.At(0))
	for _, v := range varList {
		if v >= 0 && prog.Var(v).AddrTaken {
			if id, ok := objID[Obj{Kind: VarStorageObj, Var: v}]; ok {
				if hc, ok := locIdx[Loc{Obj: id}]; ok {
					varStore.Add(vnum(v), hc)
				}
			}
		}
	}

	rules := []*datalog.Rule{
		datalog.NewRule(datalog.T(vP, "v", "h"), datalog.T(varStore, "v", "hc"), datalog.T(hP, "hc", "h")),
		datalog.NewRule(datalog.T(hP, "hc", "h"), datalog.T(varStore, "v", "hc"), datalog.T(vP, "v", "h")),
		datalog.NewRule(datalog.T(vP, "d", "h"), datalog.T(rAssign, "d", "s"), datalog.T(vP, "s", "h")),
		datalog.NewRule(datalog.T(vP, "d", "h2"),
			datalog.T(rLoad, "d", "b", "f"), datalog.T(vP, "b", "hb"),
			datalog.T(cell, "hb", "f", "hc"), datalog.T(hP, "hc", "h2")),
		datalog.NewRule(datalog.T(hP, "hc", "h2"),
			datalog.T(rStore, "b", "f", "s"), datalog.T(vP, "b", "hb"),
			datalog.T(cell, "hb", "f", "hc"), datalog.T(vP, "s", "h2")),
	}
	// Per-shift fieldAddr rules: vP(d, h2) :- vP(b, h), shiftK(h, h2)
	// for each fieldAddr edge (d, b) with that shift. Edges per shift
	// form their own relation.
	for f, sr := range shiftRels {
		edges := p.Relation("faddr"+itoa(f), V.At(0), V.At(1))
		for _, fa := range sr.fas {
			edges.Add(vnum(fa.d), vnum(fa.b))
		}
		rules = append(rules, datalog.NewRule(
			datalog.T(vP, "d", "h2"),
			datalog.T(edges, "d", "b"), datalog.T(vP, "b", "h"), datalog.T(sr.rel, "h", "h2")))
	}

	br.Rounds = p.SolveSemiNaive(ctx, rules)

	// --- read the results back out ---
	vP.Each(func(t []uint64) bool {
		v := varList[t[0]]
		l := locList[t[1]]
		set := br.vp[v]
		if set == nil {
			set = make(map[Loc]bool)
			br.vp[v] = set
		}
		set[l] = true
		return true
	})
	hP.Each(func(t []uint64) bool {
		h := locList[t[0]]
		l := locList[t[1]]
		k := heapKey{obj: h.Obj, off: h.Off}
		set := br.heap[k]
		if set == nil {
			set = make(map[Loc]bool)
			br.heap[k] = set
		}
		set[l] = true
		return true
	})
	if cfg.PtsLimit > 0 {
		top := Loc{Obj: br.TopID}
		for v, set := range br.vp {
			if len(set) > cfg.PtsLimit {
				br.vp[v] = map[Loc]bool{top: true}
				br.CappedVars++
			}
		}
	}
	return br
}

// PointsTo returns variable v's location set (context-insensitive),
// sorted.
func (br *BDDResult) PointsTo(v int32) []Loc { return sortedLocs(br.vp[v]) }

// HeapAt returns the heap cell contents, sorted.
func (br *BDDResult) HeapAt(obj int, off int64) []Loc {
	return sortedLocs(br.heap[heapKey{obj, off}])
}

// HeapSize counts heap edges.
func (br *BDDResult) HeapSize() int {
	n := 0
	for _, set := range br.heap {
		n += len(set)
	}
	return n
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// heapKey identifies one field of one object.
type heapKey struct {
	obj int
	off int64
}

func sortedLocs(set map[Loc]bool) []Loc {
	out := make([]Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Off < out[j].Off
	})
	return out
}

func hasKey(m map[string]int, k string) bool {
	_, ok := m[k]
	return ok
}
