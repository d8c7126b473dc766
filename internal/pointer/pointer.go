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
	"sort"

	"repro/internal/bdd"
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
	// Site is the allocating CALL instruction (AllocObj).
	Site *ir.Instr
	// Var is the variable whose address was taken (VarStorageObj).
	Var *ir.Var
	// Str indexes ir.Program.Strings (StringObj).
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
	// MaxRounds bounds fixpoint iterations (0 = unlimited).
	MaxRounds int
	// PtsLimit caps each variable's points-to set (0 = unlimited). A
	// set about to exceed the cap collapses to the tainted ⊤ object;
	// loads through ⊤ yield ⊤ and stores through ⊤ are dropped, so a
	// capped solve is a documented-unsound throttle, not a sound
	// over-approximation. Capped variables are counted by
	// CappedVars.
	PtsLimit int
	// BDD sizes the BDD kernel used by AnalyzeBDD (ignored by the
	// explicit solver). Sizing never changes results.
	BDD bdd.Config
}

// varKey identifies a variable in a context.
type varKey struct {
	v   *ir.Var
	ctx uint64
}

// heapKey identifies one field of one object.
type heapKey struct {
	obj int
	off int64
}

// Result is the computed points-to state.
type Result struct {
	Prog      *ir.Program
	Numbering *contexts.Numbering
	Config    Config

	Objects []Obj

	pts   map[varKey]map[Loc]bool
	heap  map[heapKey]map[Loc]bool
	objID map[Obj]int

	// allocAt maps (ctx, call instruction ID) to the object allocated
	// there.
	allocAt map[varKey2]int

	// addrTaken caches address-taken variables per function (nil key =
	// globals).
	addrTaken map[*ir.Func][]*ir.Var

	Rounds int
	// Converged reports whether the fixpoint was actually reached;
	// false means Config.MaxRounds cut the iteration off and the
	// points-to sets are an under-approximation.
	Converged bool

	// topID is the interned TopObj's ID when Config.PtsLimit > 0, -1
	// otherwise; capped records every variable whose set collapsed.
	topID  int
	capped map[varKey]bool
}

type varKey2 struct {
	ctx     uint64
	instrID int
}

// Analyze runs the analysis over the numbered call graph.
func Analyze(n *contexts.Numbering, cfg Config) *Result {
	return AnalyzeContext(context.Background(), n, cfg)
}

// AnalyzeContext is Analyze with a context: when ctx carries a
// trace.Tracer, the solve and each of its fixpoint rounds become
// spans, and a MaxRounds cutoff is recorded as an event.
func AnalyzeContext(ctx context.Context, n *contexts.Numbering, cfg Config) *Result {
	r := &Result{
		Prog:      n.G.Prog,
		Numbering: n,
		Config:    cfg,
		pts:       make(map[varKey]map[Loc]bool),
		heap:      make(map[heapKey]map[Loc]bool),
		objID:     make(map[Obj]int),
		allocAt:   make(map[varKey2]int),
		topID:     -1,
	}
	r.solve(ctx)
	return r
}

func (r *Result) intern(o Obj) int {
	if id, ok := r.objID[o]; ok {
		return id
	}
	id := len(r.Objects)
	r.Objects = append(r.Objects, o)
	r.objID[o] = id
	return id
}

func (r *Result) key(v *ir.Var, ctx uint64) varKey {
	if v.Global {
		return varKey{v: v, ctx: 0}
	}
	return varKey{v: v, ctx: ctx}
}

func (r *Result) addPts(k varKey, l Loc) bool {
	set := r.pts[k]
	if set == nil {
		set = make(map[Loc]bool)
		r.pts[k] = set
	}
	if r.topID >= 0 {
		top := Loc{Obj: r.topID}
		if set[top] {
			return false // {⊤} absorbs every add
		}
		if l == top || (!set[l] && len(set) >= r.Config.PtsLimit) {
			for x := range set {
				delete(set, x)
			}
			set[top] = true
			r.capped[k] = true
			return true
		}
	}
	if set[l] {
		return false
	}
	set[l] = true
	return true
}

func (r *Result) addHeap(k heapKey, l Loc) bool {
	set := r.heap[k]
	if set == nil {
		set = make(map[Loc]bool)
		r.heap[k] = set
	}
	if set[l] {
		return false
	}
	set[l] = true
	return true
}

// TopObjID returns the tainted ⊤ object's ID, or -1 when no cap was
// configured (no TopObj exists then).
func (r *Result) TopObjID() int { return r.topID }

// CappedVars counts the (variable, context) keys whose points-to set
// collapsed to {⊤} under Config.PtsLimit.
func (r *Result) CappedVars() int { return len(r.capped) }

// PointsTo returns the location set of v in ctx, sorted.
func (r *Result) PointsTo(v *ir.Var, ctx uint64) []Loc {
	return sortedLocs(r.pts[r.key(v, ctx)])
}

// OperandPointsTo returns the location set an operand denotes in ctx
// (variables read their points-to set; string operands denote their
// literal object; everything else denotes nothing).
func (r *Result) OperandPointsTo(o ir.Operand, ctx uint64) []Loc {
	return r.evalOpd(o, ctx)
}

// HeapAt returns the location set stored at (obj, off), sorted.
func (r *Result) HeapAt(obj int, off int64) []Loc {
	return sortedLocs(r.heap[heapKey{obj, off}])
}

// EachHeap enumerates every (obj, off) -> loc heap edge.
func (r *Result) EachHeap(fn func(obj int, off int64, l Loc)) {
	keys := make([]heapKey, 0, len(r.heap))
	for k := range r.heap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj != keys[j].obj {
			return keys[i].obj < keys[j].obj
		}
		return keys[i].off < keys[j].off
	})
	for _, k := range keys {
		for _, l := range sortedLocs(r.heap[k]) {
			fn(k.obj, k.off, l)
		}
	}
}

// AllocObjAt returns the object allocated by the CALL instruction in
// the given context, or -1.
func (r *Result) AllocObjAt(ctx uint64, instrID int) int {
	if id, ok := r.allocAt[varKey2{ctx, instrID}]; ok {
		return id
	}
	return -1
}

// HeapSize reports the number of heap points-to edges (the paper's
// "heap" column in Figure 11).
func (r *Result) HeapSize() int {
	n := 0
	for _, set := range r.heap {
		n += len(set)
	}
	return n
}

// PtsSize reports the number of variable points-to edges across all
// calling contexts.
func (r *Result) PtsSize() int {
	n := 0
	for _, set := range r.pts {
		n += len(set)
	}
	return n
}

// SolverStats summarizes the solver's effort and output sizes for the
// pipeline metrics: fixpoint rounds, abstract objects, and the
// variable/heap points-to relation sizes.
func (r *Result) SolverStats() map[string]int64 {
	converged := int64(0)
	if r.Converged {
		converged = 1
	}
	out := map[string]int64{
		"ptr_rounds":     int64(r.Rounds),
		"ptr_converged":  converged,
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

// --- the solver ---

func (r *Result) solve(ctx context.Context) {
	_, sp := trace.StartSpan(ctx, "pointer.solve")
	n := r.Numbering
	funcs := n.G.ReachableFuncs()
	if sp != nil {
		sp.Attrs(trace.Int("funcs", len(funcs)))
	}
	if r.Config.PtsLimit > 0 {
		// Intern ⊤ before anything else so its ID (0) is independent
		// of the program, and collapse decisions are deterministic.
		r.capped = make(map[varKey]bool)
		r.topID = r.intern(Obj{Kind: TopObj})
	}
	if r.Config.EntryParams {
		for _, entry := range n.G.Entries {
			f := r.Prog.Funcs[entry]
			if f == nil {
				continue
			}
			for _, p := range f.Params {
				if !p.PointerLike {
					continue
				}
				id := r.intern(Obj{Kind: ParamObj, Var: p, Fn: entry})
				for ctx := uint64(0); ctx < n.Count[entry]; ctx++ {
					r.addPts(r.key(p, ctx), Loc{Obj: id})
				}
			}
		}
	}
	for {
		r.Rounds++
		roundSp := sp.Child("round")
		changed := false
		for _, fn := range funcs {
			f := r.Prog.Funcs[fn]
			count := n.Count[fn]
			for cx := uint64(0); cx < count; cx++ {
				for _, in := range f.Instrs {
					if r.step(fn, cx, in) {
						changed = true
					}
				}
				if r.syncAddrTaken(f, cx) {
					changed = true
				}
			}
		}
		if roundSp != nil {
			roundSp.End(
				trace.Int("round", r.Rounds),
				trace.Bool("changed", changed),
				trace.Int("pts_edges", r.PtsSize()),
				trace.Int("heap_edges", r.HeapSize()),
				trace.Int("objects", len(r.Objects)))
		}
		if !changed {
			r.Converged = true
			sp.End(trace.Int("rounds", r.Rounds), trace.Bool("converged", true))
			return
		}
		if r.Config.MaxRounds > 0 && r.Rounds >= r.Config.MaxRounds {
			// Not a fixpoint: the caller sees Converged == false rather
			// than a silently truncated result. The cutoff contract is
			// the datalog solvers' — run at most MaxRounds rounds; a
			// solve that quiesces in exactly MaxRounds rounds reports
			// Converged (the !changed branch above wins the tie).
			sp.Event("max_rounds_exceeded", trace.Int("max_rounds", r.Config.MaxRounds))
			sp.End(trace.Int("rounds", r.Rounds), trace.Bool("converged", false))
			return
		}
	}
}

// syncAddrTaken keeps an address-taken variable's points-to set equal
// to the contents of its storage object's cell at offset 0: a store
// through the variable's address is a write to the variable, and a
// direct assignment to the variable is visible through its address.
func (r *Result) syncAddrTaken(f *ir.Func, ctx uint64) bool {
	if r.addrTaken == nil {
		r.addrTaken = make(map[*ir.Func][]*ir.Var)
		for _, v := range r.Prog.Vars {
			if v.AddrTaken {
				r.addrTaken[v.Func] = append(r.addrTaken[v.Func], v)
			}
		}
	}
	changed := false
	vars := make([]*ir.Var, 0, len(r.addrTaken[f])+len(r.addrTaken[nil]))
	vars = append(vars, r.addrTaken[f]...)
	if ctx == 0 {
		vars = append(vars, r.addrTaken[nil]...) // globals, synced once
	}
	for _, v := range vars {
		if v.Global && ctx != 0 {
			continue
		}
		octx := ctx
		if v.Global || !r.Config.HeapCloning {
			octx = 0
		}
		id := r.intern(Obj{Kind: VarStorageObj, Ctx: octx, Var: v})
		cell := heapKey{id, 0}
		vk := r.key(v, ctx)
		for l := range r.heap[cell] {
			if r.addPts(vk, l) {
				changed = true
			}
		}
		for l := range r.pts[vk] {
			if r.addHeap(cell, l) {
				changed = true
			}
		}
	}
	return changed
}

// evalOpd returns the location set an operand denotes in ctx.
func (r *Result) evalOpd(o ir.Operand, ctx uint64) []Loc {
	switch o.Kind {
	case ir.VarOpd:
		return sortedLocs(r.pts[r.key(o.Var, ctx)])
	case ir.StringOpd:
		id := r.intern(Obj{Kind: StringObj, Str: o.Str})
		return []Loc{{Obj: id}}
	}
	// Constants, nulls, and function operands carry no heap locations
	// (function targets live in the call graph's vF relation).
	return nil
}

func (r *Result) step(fn string, ctx uint64, in *ir.Instr) bool {
	changed := false
	flowTo := func(dst ir.Operand, locs []Loc) {
		if dst.Kind != ir.VarOpd {
			return
		}
		k := r.key(dst.Var, ctx)
		for _, l := range locs {
			if r.addPts(k, l) {
				changed = true
			}
		}
	}
	switch in.Op {
	case ir.Assign:
		flowTo(in.Dst, r.evalOpd(in.Src, ctx))
	case ir.Addr:
		v := in.Src.Var
		octx := ctx
		if v.Global || !r.Config.HeapCloning {
			octx = 0
		}
		id := r.intern(Obj{Kind: VarStorageObj, Ctx: octx, Var: v})
		flowTo(in.Dst, []Loc{{Obj: id}})
	case ir.FieldAddr:
		base := r.evalOpd(in.Base, ctx)
		locs := make([]Loc, len(base))
		for i, l := range base {
			if l.Obj == r.topID && r.topID >= 0 {
				locs[i] = l // ⊤ has no fields: shifting stays ⊤
				continue
			}
			locs[i] = Loc{Obj: l.Obj, Off: l.Off + in.Off}
		}
		flowTo(in.Dst, locs)
	case ir.Load:
		var locs []Loc
		for _, b := range r.evalOpd(in.Base, ctx) {
			if b.Obj == r.topID && r.topID >= 0 {
				locs = append(locs, b) // load through ⊤ yields ⊤
				continue
			}
			for l := range r.heap[heapKey{b.Obj, b.Off + in.Off}] {
				locs = append(locs, l)
			}
		}
		flowTo(in.Dst, locs)
	case ir.Store:
		src := r.evalOpd(in.Src, ctx)
		for _, b := range r.evalOpd(in.Base, ctx) {
			if b.Obj == r.topID && r.topID >= 0 {
				continue // store through ⊤ dropped (unsound throttle)
			}
			k := heapKey{b.Obj, b.Off + in.Off}
			for _, l := range src {
				if r.addHeap(k, l) {
					changed = true
				}
			}
		}
	case ir.Call:
		if r.stepCall(fn, ctx, in) {
			changed = true
		}
	case ir.Ret:
		// Handled by the caller-side wiring in stepCall.
	}
	return changed
}

func (r *Result) stepCall(fn string, ctx uint64, in *ir.Instr) bool {
	changed := false
	n := r.Numbering
	// Defined callees: parameter/return wiring in the mapped context.
	for _, callee := range n.G.Edges[in.ID] {
		target := r.Prog.Funcs[callee]
		if target == nil || !n.G.Reachable[callee] {
			continue
		}
		calleeCtx := n.MapContext(fn, ctx, contexts.Edge{Instr: in.ID, Callee: callee})
		for i, a := range in.Args {
			if i >= len(target.Params) {
				break
			}
			pk := r.key(target.Params[i], calleeCtx)
			for _, l := range r.evalOpd(a, ctx) {
				if r.addPts(pk, l) {
					changed = true
				}
			}
		}
		if in.Dst.Kind == ir.VarOpd && target.RetVal != nil {
			dk := r.key(in.Dst.Var, ctx)
			for l := range r.pts[r.key(target.RetVal, calleeCtx)] {
				if r.addPts(dk, l) {
					changed = true
				}
			}
		}
	}
	// Extern models.
	names := r.externCallees(in)
	for _, name := range names {
		switch {
		case r.Config.AllocFns[name]:
			id := r.allocate(name, ctx, in)
			if in.Dst.Kind == ir.VarOpd {
				if r.addPts(r.key(in.Dst.Var, ctx), Loc{Obj: id}) {
					changed = true
				}
			}
		case hasKey(r.Config.OutAllocFns, name):
			argIdx := r.Config.OutAllocFns[name]
			id := r.allocate(name, ctx, in)
			if argIdx < len(in.Args) {
				for _, b := range r.evalOpd(in.Args[argIdx], ctx) {
					if b.Obj == r.topID && r.topID >= 0 {
						continue // store through ⊤ dropped
					}
					if r.addHeap(heapKey{b.Obj, b.Off}, Loc{Obj: id}) {
						changed = true
					}
				}
			}
		case hasKey(r.Config.ReturnArgFns, name):
			argIdx := r.Config.ReturnArgFns[name]
			if argIdx < len(in.Args) && in.Dst.Kind == ir.VarOpd {
				dk := r.key(in.Dst.Var, ctx)
				for _, l := range r.evalOpd(in.Args[argIdx], ctx) {
					if r.addPts(dk, l) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// externCallees lists unresolved callee names of a call (direct extern
// target or function-pointer candidates that are not defined).
func (r *Result) externCallees(in *ir.Instr) []string {
	switch in.Callee.Kind {
	case ir.FuncOpd:
		if _, defined := r.Prog.Funcs[in.Callee.Fn]; !defined {
			return []string{in.Callee.Fn}
		}
	case ir.VarOpd:
		var out []string
		for fn := range r.Numbering.G.VF[in.Callee.Var] {
			if _, defined := r.Prog.Funcs[fn]; !defined {
				out = append(out, fn)
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

func (r *Result) allocate(fnName string, ctx uint64, in *ir.Instr) int {
	octx := ctx
	if !r.Config.HeapCloning {
		octx = 0
	}
	id := r.intern(Obj{Kind: AllocObj, Ctx: octx, Site: in, Fn: fnName})
	r.allocAt[varKey2{ctx, in.ID}] = id
	return id
}

func hasKey(m map[string]int, k string) bool {
	_, ok := m[k]
	return ok
}
