// Package pointer implements the context-sensitive, field-sensitive
// Andersen-style pointer analysis with heap cloning at the core of
// RegionWiz (Sections 4.3 and 5.3.1).
//
// Abstract objects are identified by (context, allocation site) pairs —
// the heap cloning of Nystrom et al. that the paper argues is necessary
// to distinguish region and object instances created at the same call
// site on different call paths. Variables are likewise analyzed per
// calling context, with contexts numbered by package contexts.
//
// Points-to targets are locations (object, byte offset): a pointer may
// address the middle of an object (a field), which keeps the heap
// relation field-sensitive in the presence of address-of-field
// expressions.
package pointer

import (
	"context"
	"slices"
	"sort"

	"repro/internal/contexts"
	"repro/internal/ir"
	"repro/internal/trace"
)

// ObjKind classifies abstract objects.
type ObjKind uint8

// Object kinds.
const (
	// AllocObj is a heap object born at a call to an allocator
	// function (ralloc/apr_palloc/malloc/... per Config).
	AllocObj ObjKind = iota
	// VarStorageObj is the storage of an address-taken variable.
	VarStorageObj
	// StringObj is a string literal's storage.
	StringObj
	// ParamObj is the symbolic referent of an entry function's
	// pointer parameter in open-program (library) analysis: each
	// pointer parameter of each analysis root denotes a distinct
	// unknown object/region owned by the caller.
	ParamObj
	// TopObj is the tainted ⊤ object a Config.PtsLimit overflow
	// collapses to: a points-to set that would exceed the cap becomes
	// {⊤}, which absorbs every later add. At most one TopObj exists
	// per Result, interned before any other object when the cap is
	// on.
	TopObj
)

// Obj is one abstract object.
type Obj struct {
	Kind ObjKind
	// Ctx is the calling context of the allocation (always 0 when heap
	// cloning is disabled, and for globals and strings).
	Ctx uint64
	// Site is the ID of the allocating CALL instruction (AllocObj).
	Site int32
	// Var is the ID of the variable whose address was taken
	// (VarStorageObj), or of the entry parameter (ParamObj).
	Var int32
	// Str is the string literal's index (StringObj; see
	// ir.Program.StringLit).
	Str int
	// Fn names the allocator that produced an AllocObj (for region
	// classification by the core analysis).
	Fn string
}

// Loc is a points-to target: a byte offset within an object.
type Loc struct {
	Obj int // object ID
	Off int64
}

// Config selects the externs with allocator semantics and the analysis
// precision knobs.
type Config struct {
	// AllocFns: extern functions returning a fresh object.
	AllocFns map[string]bool
	// OutAllocFns: externs that allocate a fresh object and store it
	// through the pointer argument at the given index
	// (apr_pool_create style). The object is also flowed to the
	// call's return value destination.
	OutAllocFns map[string]int
	// ReturnArgFns: externs returning one of their arguments
	// (memcpy-style identity).
	ReturnArgFns map[string]int
	// HeapCloning keys objects by (context, site); disabling it (the
	// ablation of Section 7's comparison with non-cloning work) keys
	// them by site only.
	HeapCloning bool
	// EntryParams seeds every pointer-like parameter of every
	// analysis root with a fresh ParamObj — the open-program mode.
	EntryParams bool
	// PtsLimit caps each variable's points-to set (0 = unlimited). A
	// set about to exceed the cap collapses to the tainted ⊤ object;
	// loads through ⊤ yield ⊤ and stores through ⊤ are dropped, so a
	// capped solve is a documented-unsound throttle, not a sound
	// over-approximation. Capped variables are counted by
	// CappedVars.
	PtsLimit int
}

// Result is the computed points-to state.
//
// Every points-to set lives in a cell, kept sorted by (Obj, Off).
// Variable cells are numbered densely: a global's is its ID (globals
// have one context), and a reachable function's variable v in context
// c has its function's base plus (v − VarFirst) × contexts + c. Heap
// cells, one per (object, offset), are numbered on from there in the
// order they are first written.
type Result struct {
	Prog      *ir.Program
	Numbering *contexts.Numbering
	Config    Config

	Objects []Obj

	// Rounds counts the fixpoint rounds, the last of which changed
	// nothing.
	Rounds int

	// sets holds the variable cells' sets, heap the heap cells'.
	sets     [][]Loc
	heap     [][]Loc
	varCells int
	nGlobals int32
	// funcs lays out the reachable functions' variable cells in solve
	// order (ReachableFuncs); byVar orders them by VarFirst.
	funcs []funcCells
	byVar []*funcCells
	// heapCells lists each object's heap cells by ascending offset,
	// indexed by object ID.
	heapCells [][]heapCell

	// The edge counts and capped variables, kept by add.
	ptsEdges, heapEdges, cappedVars int

	// strLocs holds each string object's one-location set, by literal
	// index; objID interns the objects no cache holds (see intern).
	strLocs map[int64][]Loc
	objID   map[Obj]int
	// allocAt maps an allocating call's instruction ID to the object
	// it allocated in each caller context (-1 for none).
	allocAt map[int][]int32

	// topID is the interned TopObj's ID when Config.PtsLimit > 0, -1
	// otherwise.
	topID int
}

// funcCells places one reachable function's variable cells.
type funcCells struct {
	f     *ir.Func
	name  string
	base  int
	count uint64
}

// heapCell is the cell of one field of an object.
type heapCell struct {
	off  int64
	cell int
}

// Analyze runs the analysis over the numbered call graph.
func Analyze(n *contexts.Numbering, cfg Config) *Result {
	r, _ := AnalyzeContext(context.Background(), n, cfg) // Background is never cancelled
	return r
}

// AnalyzeContext is Analyze with a context. The solve checks ctx
// before each fixpoint round and returns its error once it is done,
// so a deadline ends a running solve after the round in progress.
// When ctx carries a trace.Tracer, the solve and each of its rounds
// become spans.
func AnalyzeContext(ctx context.Context, n *contexts.Numbering, cfg Config) (*Result, error) {
	r := &Result{
		Prog:      n.G.Prog,
		Numbering: n,
		Config:    cfg,
		strLocs:   make(map[int64][]Loc),
		allocAt:   make(map[int][]int32),
		topID:     -1,
	}
	if err := newSolver(r).solve(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// newObj adds an object and returns its ID. Each object is made once:
// an allocation's and an address-taken variable's are cached by the
// solver, a string's in strLocs, and the rest are interned.
func (r *Result) newObj(o Obj) int {
	r.Objects = append(r.Objects, o)
	r.heapCells = append(r.heapCells, nil)
	return len(r.Objects) - 1
}

// intern returns o's ID, making it on first use.
func (r *Result) intern(o Obj) int {
	if id, ok := r.objID[o]; ok {
		return id
	}
	if r.objID == nil {
		r.objID = make(map[Obj]int)
	}
	id := r.newObj(o)
	r.objID[o] = id
	return id
}

// cell numbers variable v's cell in ctx, or returns -1 when it has
// none: v belongs to no reachable function, or ctx is past its
// function's contexts. fc, when not nil, is tried before the search
// for v's function.
func (r *Result) cell(fc *funcCells, v int32, ctx uint64) int {
	if v < r.nGlobals {
		return int(v)
	}
	if fc == nil || v < fc.f.VarFirst || v >= fc.f.VarEnd {
		i := sort.Search(len(r.byVar), func(i int) bool { return r.byVar[i].f.VarEnd > v })
		if i == len(r.byVar) || r.byVar[i].f.VarFirst > v {
			return -1
		}
		fc = r.byVar[i]
	}
	if ctx >= fc.count {
		return -1
	}
	return fc.base + int(v-fc.f.VarFirst)*int(fc.count) + int(ctx)
}

// heapCell returns the cell of field off of object obj, or -1 when
// nothing was written there; with create it makes a missing cell.
func (r *Result) heapCell(obj int, off int64, create bool) int {
	if obj < 0 || obj >= len(r.heapCells) {
		return -1
	}
	cells := r.heapCells[obj]
	i := 0
	for i < len(cells) && cells[i].off < off {
		i++
	}
	if i < len(cells) && cells[i].off == off {
		return cells[i].cell
	}
	if !create {
		return -1
	}
	c := r.varCells + len(r.heap)
	r.heap = append(r.heap, nil)
	r.heapCells[obj] = slices.Insert(cells, i, heapCell{off, c})
	return c
}

// set is cell c's points-to set, in place.
func (r *Result) set(c int) []Loc {
	switch {
	case c < 0:
		return nil
	case c < r.varCells:
		return r.sets[c]
	}
	return r.heap[c-r.varCells]
}

// add inserts l into cell c's set, keeping it sorted, and reports
// whether the set changed. Every edge of the solution goes in here,
// which keeps the edge counts. Under Config.PtsLimit a variable's set
// about to exceed the cap collapses to {⊤}, which absorbs every later
// add.
func (r *Result) add(c int, l Loc) bool {
	if c < 0 {
		return false
	}
	isVar := c < r.varCells
	var p *[]Loc
	edges := &r.ptsEdges
	if isVar {
		p = &r.sets[c]
	} else {
		p, edges = &r.heap[c-r.varCells], &r.heapEdges
	}
	set := *p
	i, found := search(set, l)
	if isVar && r.topID >= 0 {
		top := Loc{Obj: r.topID}
		if len(set) == 1 && set[0] == top {
			return false
		}
		if l == top || (!found && len(set) >= r.Config.PtsLimit) {
			*edges += 1 - len(set)
			*p = append(set[:0], top)
			r.cappedVars++
			return true
		}
	}
	if found {
		return false
	}
	*p = slices.Insert(set, i, l)
	*edges++
	return true
}

// search finds l's position in a sorted set.
func search(set []Loc, l Loc) (int, bool) {
	lo, hi := 0, len(set)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := set[m]; x.Obj < l.Obj || (x.Obj == l.Obj && x.Off < l.Off) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(set) && set[lo] == l
}

// CappedVars counts the (variable, context) keys whose points-to set
// collapsed to {⊤} under Config.PtsLimit.
func (r *Result) CappedVars() int { return r.cappedVars }

// PointsTo returns the location set of variable v in ctx, sorted. The
// slice is the solution's own and must not be modified.
func (r *Result) PointsTo(v int32, ctx uint64) []Loc {
	return r.set(r.cell(nil, v, ctx))
}

// OperandPointsTo returns the location set an operand denotes in ctx
// (variables read their points-to set; string operands denote their
// literal object; everything else denotes nothing). The slice must not
// be modified.
func (r *Result) OperandPointsTo(o ir.Opd, ctx uint64) []Loc {
	return r.evalOpd(nil, o, ctx)
}

// HeapAt returns the location set stored at (obj, off), sorted. The
// slice must not be modified.
func (r *Result) HeapAt(obj int, off int64) []Loc {
	return r.set(r.heapCell(obj, off, false))
}

// EachHeap enumerates every (obj, off) -> loc heap edge, ordered by
// object, offset and location.
func (r *Result) EachHeap(fn func(obj int, off int64, l Loc)) {
	for obj := range r.heapCells {
		r.EachHeapOf(obj, func(off int64, l Loc) { fn(obj, off, l) })
	}
}

// EachHeapOf enumerates object obj's heap edges off -> loc, ordered by
// offset and location.
func (r *Result) EachHeapOf(obj int, fn func(off int64, l Loc)) {
	if obj < 0 || obj >= len(r.heapCells) {
		return
	}
	for _, hc := range r.heapCells[obj] {
		for _, l := range r.set(hc.cell) {
			fn(hc.off, l)
		}
	}
}

// AllocObjAt returns the object allocated by the CALL instruction in
// the given context, or -1.
func (r *Result) AllocObjAt(ctx uint64, instrID int) int {
	if objs := r.allocAt[instrID]; ctx < uint64(len(objs)) {
		return int(objs[ctx])
	}
	return -1
}

// HeapSize reports the number of heap points-to edges (the paper's
// "heap" column in Figure 11).
func (r *Result) HeapSize() int { return r.heapEdges }

// PtsSize reports the number of variable points-to edges across all
// calling contexts.
func (r *Result) PtsSize() int { return r.ptsEdges }

// SolverStats summarizes the solver's effort and output sizes for the
// pipeline metrics: fixpoint rounds, abstract objects, and the
// variable/heap points-to relation sizes.
func (r *Result) SolverStats() map[string]int64 {
	out := map[string]int64{
		"ptr_rounds":     int64(r.Rounds),
		"ptr_objects":    int64(len(r.Objects)),
		"pts_edges":      int64(r.PtsSize()),
		"ptr_heap_edges": int64(r.HeapSize()),
	}
	// Emitted only when the cap actually bit, so uncapped runs keep
	// their golden phase outputs byte-identical.
	if n := r.CappedVars(); n > 0 {
		out["ptr_capped_vars"] = int64(n)
	}
	return out
}

// evalOpd returns the location set an operand denotes in ctx, in
// place. fc is the function holding the operand, or nil.
func (r *Result) evalOpd(fc *funcCells, o ir.Opd, ctx uint64) []Loc {
	switch o.Kind {
	case ir.VarOpd:
		return r.set(r.cell(fc, o.Var, ctx))
	case ir.StringOpd:
		if locs, ok := r.strLocs[o.C]; ok {
			return locs
		}
		id := r.newObj(Obj{Kind: StringObj, Str: int(o.C)})
		locs := []Loc{{Obj: id}}
		r.strLocs[o.C] = locs
		return locs
	}
	// Constants, nulls, and function operands carry no heap locations
	// (function targets live in the call graph's vF relation).
	return nil
}

// externCallees lists unresolved callee names of a call (direct extern
// target or function-pointer candidates that are not defined).
func (r *Result) externCallees(in *ir.Inst) []string {
	switch callee := in.Callee(); callee.Kind {
	case ir.FuncOpd:
		if _, defined := r.Prog.Funcs[callee.Fn]; !defined {
			return []string{callee.Fn}
		}
	case ir.VarOpd:
		var out []string
		for fn := range r.Numbering.G.VF[callee.Var] {
			if _, defined := r.Prog.Funcs[fn]; !defined {
				out = append(out, fn)
			}
		}
		slices.Sort(out)
		return out
	}
	return nil
}

// --- the solver ---

// solver is what a solve needs beyond the Result it fills: each
// reachable function's instructions, call sites and address-taken
// variables, read once per solve.
type solver struct {
	*Result
	fns []fnState
	// globalsAddrTaken lists the address-taken globals, synced in
	// context 0.
	globalsAddrTaken []int32
	// storage caches each variable cell's storage object.
	storage []int32
	// buf gathers the locations a Load or FieldAddr flows.
	buf []Loc
}

type fnState struct {
	*funcCells
	code      []ir.Inst
	sites     []callSite // one per Call in code, in order
	addrTaken []int32
}

// callSite is one reachable call, resolved once per solve.
type callSite struct {
	callees []calleeWire
	externs []externModel
	// alloc is allocAt's entry for the call when it has an allocating
	// model.
	alloc []int32
}

// calleeWire is a defined, reachable callee of a call and the map
// from the caller's contexts to its own.
type calleeWire struct {
	*funcCells
	edge contexts.Edge
	// off and mod give the map in arithmetic form (see
	// contexts.EdgeMap) when arith is set; otherwise it is
	// Numbering.MapContext.
	off, mod uint64
	arith    bool
}

type modelKind uint8

const (
	allocModel modelKind = iota
	outAllocModel
	returnArgModel
)

// externModel is an extern callee that Config gives semantics.
type externModel struct {
	kind modelKind
	arg  int
	name string
	// objs caches an allocating model's object per allocation context.
	objs []int32
}

// newSolver lays out r's variable cells and resolves the reachable
// functions' call sites.
func newSolver(r *Result) *solver {
	n, p := r.Numbering, r.Prog
	names := n.G.ReachableFuncs()
	r.nGlobals = p.NumGlobals()
	cells, instrs := int(r.nGlobals), 0
	r.funcs = make([]funcCells, 0, len(names))
	for _, name := range names {
		f := p.Funcs[name]
		if f == nil {
			continue
		}
		r.funcs = append(r.funcs, funcCells{f: f, name: name, base: cells, count: n.Count[name]})
		cells += int(f.VarEnd-f.VarFirst) * int(n.Count[name])
		instrs += f.End - f.First
	}
	r.varCells = cells
	r.sets = make([][]Loc, cells)
	r.byVar = make([]*funcCells, len(r.funcs))
	for i := range r.funcs {
		r.byVar[i] = &r.funcs[i]
	}
	slices.SortFunc(r.byVar, func(a, b *funcCells) int { return int(a.f.VarFirst) - int(b.f.VarFirst) })

	s := &solver{Result: r, fns: make([]fnState, len(r.funcs))}
	for v := int32(0); v < r.nGlobals; v++ {
		if p.Var(v).AddrTaken {
			s.globalsAddrTaken = append(s.globalsAddrTaken, v)
		}
	}
	s.storage = unset(cells)
	// Every round visits every context of every reachable function,
	// so each allocation and address-taken variable gets its object
	// in each allocation context: with the string operands and ⊤ they
	// bound the objects made.
	objs := len(s.globalsAddrTaken) + 1
	code := make([]ir.Inst, 0, instrs)
	for i := range r.funcs {
		fs := &s.fns[i]
		fs.funcCells = &r.funcs[i]
		f := fs.f
		start := len(code)
		for c := p.Cursor(f.First, f.End); c.Next(); {
			in := &c.Inst
			code = append(code, *in)
			if in.Op != ir.Call {
				objs += isString(in.Src()) + isString(in.Base())
				continue
			}
			cs := s.resolve(fs.funcCells, in)
			for k := range cs.externs {
				objs += len(cs.externs[k].objs)
			}
			for k := 0; k < in.NumArgs(); k++ {
				objs += isString(in.Arg(k))
			}
			fs.sites = append(fs.sites, cs)
		}
		fs.code = code[start:len(code):len(code)]
		for v := f.VarFirst; v < f.VarEnd; v++ {
			if p.Var(v).AddrTaken {
				fs.addrTaken = append(fs.addrTaken, v)
			}
		}
		objs += len(fs.addrTaken) * int(s.stride(fs.count))
	}
	r.Objects = make([]Obj, 0, objs)
	r.heapCells = make([][]heapCell, 0, objs)
	return s
}

func isString(o ir.Opd) int {
	if o.Kind == ir.StringOpd {
		return 1
	}
	return 0
}

// stride is the number of allocation contexts of a function with
// count contexts: one without heap cloning.
func (s *solver) stride(count uint64) uint64 {
	if !s.Config.HeapCloning {
		return 1
	}
	return count
}

// unset makes a cache of n object IDs, none known yet.
func unset(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	return ids
}

// resolve finds a call's defined callees, with their context maps,
// and its modelled extern callees.
func (s *solver) resolve(caller *funcCells, in *ir.Inst) callSite {
	var cs callSite
	g := s.Numbering.G
	for _, callee := range g.Edges[in.ID] {
		if s.Prog.Funcs[callee] == nil || !g.Reachable[callee] {
			continue
		}
		i := sort.Search(len(s.funcs), func(i int) bool { return s.funcs[i].name >= callee })
		w := calleeWire{funcCells: &s.funcs[i], edge: contexts.Edge{Instr: in.ID, Callee: callee}}
		w.off, w.mod, w.arith = s.Numbering.EdgeMap(caller.name, w.edge)
		cs.callees = append(cs.callees, w)
	}
	for _, name := range s.externCallees(in) {
		m := externModel{name: name}
		if s.Config.AllocFns[name] {
			m.kind = allocModel
		} else if arg, ok := s.Config.OutAllocFns[name]; ok {
			m.kind, m.arg = outAllocModel, arg
		} else if arg, ok := s.Config.ReturnArgFns[name]; ok {
			m.kind, m.arg = returnArgModel, arg
		} else {
			continue
		}
		if m.kind != returnArgModel {
			m.objs = unset(int(s.stride(caller.count)))
			if cs.alloc == nil {
				cs.alloc = unset(int(caller.count))
				s.allocAt[in.ID] = cs.alloc
			}
		}
		cs.externs = append(cs.externs, m)
	}
	return cs
}

// solve iterates to the fixpoint. Each round visits the reachable
// functions in name order, each function's contexts in ascending
// order, and each context's instructions in program order; objects
// are interned in the order this visit first meets them.
func (s *solver) solve(ctx context.Context) error {
	_, sp := trace.StartSpan(ctx, "pointer.solve")
	if sp != nil {
		sp.Attrs(trace.Int("funcs", len(s.funcs)))
	}
	if s.Config.PtsLimit > 0 {
		// Intern ⊤ before anything else so its ID (0) is independent
		// of the program, and collapse decisions are deterministic.
		s.topID = s.newObj(Obj{Kind: TopObj})
	}
	if s.Config.EntryParams {
		for _, entry := range s.Numbering.G.Entries {
			f := s.Prog.Funcs[entry]
			if f == nil {
				continue
			}
			for i := 0; i < f.NumParams; i++ {
				p := f.Param(i)
				if !s.Prog.Var(p).PointerLike {
					continue
				}
				id := s.intern(Obj{Kind: ParamObj, Var: p, Fn: entry})
				for ctx := uint64(0); ctx < s.Numbering.Count[entry]; ctx++ {
					s.add(s.cell(nil, p, ctx), Loc{Obj: id})
				}
			}
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			sp.End(trace.Int("rounds", s.Rounds))
			return err
		}
		s.Rounds++
		roundSp := sp.Child("round")
		changed := false
		for i := range s.fns {
			fs := &s.fns[i]
			for cx := uint64(0); cx < fs.count; cx++ {
				site := 0
				for j := range fs.code {
					in := &fs.code[j]
					if in.Op == ir.Call {
						if s.stepCall(fs.funcCells, cx, in, &fs.sites[site]) {
							changed = true
						}
						site++
					} else if s.step(fs.funcCells, cx, in) {
						changed = true
					}
				}
				if s.syncAddrTaken(fs, cx) {
					changed = true
				}
			}
		}
		if roundSp != nil {
			roundSp.End(
				trace.Int("round", s.Rounds),
				trace.Bool("changed", changed),
				trace.Int("pts_edges", s.ptsEdges),
				trace.Int("heap_edges", s.heapEdges),
				trace.Int("objects", len(s.Objects)))
		}
		if !changed {
			sp.End(trace.Int("rounds", s.Rounds))
			return nil
		}
	}
}

// storageObj returns the storage object of variable v in ctx, cached
// in the cell of v in its allocation context. fc is v's function, or
// nil.
func (s *solver) storageObj(fc *funcCells, v int32, ctx uint64) int {
	if v < s.nGlobals || !s.Config.HeapCloning {
		ctx = 0
	}
	o := Obj{Kind: VarStorageObj, Ctx: ctx, Var: v}
	c := s.cell(fc, v, ctx)
	if c < 0 {
		return s.intern(o)
	}
	if s.storage[c] < 0 {
		s.storage[c] = int32(s.newObj(o))
	}
	return int(s.storage[c])
}

// syncAddrTaken keeps an address-taken variable's points-to set equal
// to the contents of its storage object's cell at offset 0: a store
// through the variable's address is a write to the variable, and a
// direct assignment to the variable is visible through its address.
func (s *solver) syncAddrTaken(fs *fnState, ctx uint64) bool {
	changed := false
	for _, v := range fs.addrTaken {
		if s.sync(fs.funcCells, v, ctx) {
			changed = true
		}
	}
	if ctx == 0 {
		for _, v := range s.globalsAddrTaken { // globals, synced once
			if s.sync(nil, v, 0) {
				changed = true
			}
		}
	}
	return changed
}

func (s *solver) sync(fc *funcCells, v int32, ctx uint64) bool {
	id := s.storageObj(fc, v, ctx)
	vc := s.cell(fc, v, ctx)
	changed := false
	hc := s.heapCell(id, 0, false)
	for _, l := range s.set(hc) {
		if s.add(vc, l) {
			changed = true
		}
	}
	if set := s.set(vc); len(set) > 0 {
		hc = s.heapCell(id, 0, true)
		for _, l := range set {
			if s.add(hc, l) {
				changed = true
			}
		}
	}
	return changed
}

// flow adds locs to the destination variable's set.
func (s *solver) flow(fc *funcCells, dst ir.Opd, ctx uint64, locs []Loc) bool {
	if dst.Kind != ir.VarOpd {
		return false
	}
	c := s.cell(fc, dst.Var, ctx)
	changed := false
	for _, l := range locs {
		if s.add(c, l) {
			changed = true
		}
	}
	return changed
}

// step applies one non-call instruction of function fc in ctx.
func (s *solver) step(fc *funcCells, ctx uint64, in *ir.Inst) bool {
	switch in.Op {
	case ir.Assign:
		return s.flow(fc, in.Dst(), ctx, s.evalOpd(fc, in.Src(), ctx))
	case ir.Addr:
		id := s.storageObj(fc, in.Src().Var, ctx)
		return s.flow(fc, in.Dst(), ctx, []Loc{{Obj: id}})
	case ir.FieldAddr:
		off := in.Off()
		locs := s.buf[:0]
		for _, l := range s.evalOpd(fc, in.Base(), ctx) {
			if l.Obj != s.topID { // ⊤ has no fields: shifting stays ⊤
				l.Off += off
			}
			locs = append(locs, l)
		}
		s.buf = locs
		return s.flow(fc, in.Dst(), ctx, locs)
	case ir.Load:
		off := in.Off()
		locs := s.buf[:0]
		for _, b := range s.evalOpd(fc, in.Base(), ctx) {
			if b.Obj == s.topID {
				locs = append(locs, b) // load through ⊤ yields ⊤
				continue
			}
			locs = append(locs, s.set(s.heapCell(b.Obj, b.Off+off, false))...)
		}
		s.buf = locs
		return s.flow(fc, in.Dst(), ctx, locs)
	case ir.Store:
		changed := false
		src := s.evalOpd(fc, in.Src(), ctx)
		off := in.Off()
		for _, b := range s.evalOpd(fc, in.Base(), ctx) {
			if b.Obj == s.topID || len(src) == 0 {
				continue // store through ⊤ dropped (unsound throttle)
			}
			c := s.heapCell(b.Obj, b.Off+off, true)
			for _, l := range src {
				if s.add(c, l) {
					changed = true
				}
			}
		}
		return changed
	}
	// Ret is handled by the caller-side wiring in stepCall.
	return false
}

// stepCall applies a call of function fc in ctx: parameter and return
// wiring into each defined callee's mapped context, then the extern
// models.
func (s *solver) stepCall(fc *funcCells, ctx uint64, in *ir.Inst, cs *callSite) bool {
	changed := false
	for i := range cs.callees {
		w := &cs.callees[i]
		var calleeCtx uint64
		if w.arith {
			calleeCtx = contexts.Shift(ctx, w.off, w.mod)
		} else {
			calleeCtx = s.Numbering.MapContext(fc.name, ctx, w.edge)
		}
		target := w.f
		for k := 0; k < in.NumArgs() && k < target.NumParams; k++ {
			pc := s.cell(w.funcCells, target.Param(k), calleeCtx)
			for _, l := range s.evalOpd(fc, in.Arg(k), ctx) {
				if s.add(pc, l) {
					changed = true
				}
			}
		}
		if dst := in.Dst(); dst.Kind == ir.VarOpd && target.RetVal >= 0 {
			ret := s.set(s.cell(w.funcCells, target.RetVal, calleeCtx))
			if s.flow(fc, dst, ctx, ret) {
				changed = true
			}
		}
	}
	for i := range cs.externs {
		m := &cs.externs[i]
		switch m.kind {
		case allocModel:
			id := s.allocate(cs, m, ctx, in)
			if s.flow(fc, in.Dst(), ctx, []Loc{{Obj: id}}) {
				changed = true
			}
		case outAllocModel:
			id := s.allocate(cs, m, ctx, in)
			if m.arg < in.NumArgs() {
				for _, b := range s.evalOpd(fc, in.Arg(m.arg), ctx) {
					if b.Obj == s.topID {
						continue // store through ⊤ dropped
					}
					if s.add(s.heapCell(b.Obj, b.Off, true), Loc{Obj: id}) {
						changed = true
					}
				}
			}
		case returnArgModel:
			if m.arg < in.NumArgs() {
				if s.flow(fc, in.Dst(), ctx, s.evalOpd(fc, in.Arg(m.arg), ctx)) {
					changed = true
				}
			}
		}
	}
	return changed
}

// allocate interns the object an allocating extern creates at a call
// in ctx and records it as the call's allocation there.
func (s *solver) allocate(cs *callSite, m *externModel, ctx uint64, in *ir.Inst) int {
	octx := ctx
	if len(m.objs) == 1 {
		octx = 0
	}
	id := &m.objs[octx]
	if *id < 0 {
		*id = int32(s.newObj(Obj{Kind: AllocObj, Ctx: octx, Site: int32(in.ID), Fn: m.name}))
	}
	cs.alloc[ctx] = *id
	return int(*id)
}
