// Package callgraph builds the initial context-insensitive call graph
// (the paper's Section 5.1): direct calls read off CALL instructions,
// indirect calls resolved by propagating function-pointer values (the
// vF set) along assignments and call/return edges, and implicit calls
// (thread entry points, pool cleanup callbacks) registered through an
// extensible spec table. A final reachability pass prunes functions
// never called from the program entry.
package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// ImplicitSpec marks an extern whose EntryArg-th argument is invoked by
// the runtime (thread creation, cleanup registration, ...).
type ImplicitSpec struct {
	Fn       string
	EntryArg int
}

// DefaultImplicitSpecs covers the thread-creation functions the paper's
// prototype knew about (Windows API, libc, APR) plus APR cleanup
// registration.
var DefaultImplicitSpecs = []ImplicitSpec{
	{Fn: "pthread_create", EntryArg: 2},
	{Fn: "CreateThread", EntryArg: 2},
	{Fn: "apr_thread_create", EntryArg: 2},
	{Fn: "apr_pool_cleanup_register", EntryArg: 2},
	{Fn: "apr_pool_cleanup_register", EntryArg: 3},
}

// Graph is the context-insensitive call graph: the relation
// call : I x F of the paper.
type Graph struct {
	Prog  *ir.Program
	Entry string
	// Entries lists every analysis root (one element for whole
	// programs; all exported functions for open-program analysis).
	Entries []string

	// Edges maps a CALL instruction ID to its possible callees
	// (defined functions only; extern targets are recorded in
	// ExternCalls).
	Edges map[int][]string
	// ExternCalls maps a CALL instruction ID to extern callee names.
	ExternCalls map[int][]string
	// Callers maps a defined function to the CALL instruction IDs that
	// may invoke it.
	Callers map[string][]int
	// Reachable holds the defined functions reachable from the entry.
	Reachable map[string]bool
	// VF is the resolved function-pointer points-to relation vF: V x F.
	VF map[int32]map[string]bool
}

// Build constructs the call graph for prog with the given entry
// function (normally "main"). If implicit is nil, DefaultImplicitSpecs
// is used.
func Build(prog *ir.Program, entry string, implicit []ImplicitSpec) *Graph {
	return BuildEntries(prog, []string{entry}, implicit)
}

// BuildEntries constructs the call graph with several analysis roots —
// the open-program mode for analyzing libraries (the paper's Section 8
// extension).
func BuildEntries(prog *ir.Program, entries []string, implicit []ImplicitSpec) *Graph {
	if implicit == nil {
		implicit = DefaultImplicitSpecs
	}
	entry := ""
	if len(entries) > 0 {
		entry = entries[0]
	}
	implicitByFn := make(map[string][]int)
	for _, s := range implicit {
		implicitByFn[s.Fn] = append(implicitByFn[s.Fn], s.EntryArg)
	}
	g := &Graph{
		Prog:        prog,
		Entry:       entry,
		Entries:     append([]string(nil), entries...),
		Edges:       make(map[int][]string),
		ExternCalls: make(map[int][]string),
		Callers:     make(map[string][]int),
		Reachable:   make(map[string]bool),
		VF:          make(map[int32]map[string]bool),
	}

	edgeSet := make(map[int]map[string]bool)
	addEdge := func(instrID int, fn string) {
		if _, defined := prog.Funcs[fn]; !defined {
			return
		}
		set := edgeSet[instrID]
		if set == nil {
			set = make(map[string]bool)
			edgeSet[instrID] = set
		}
		set[fn] = true
	}
	addVF := func(v int32, fn string) bool {
		set := g.VF[v]
		if set == nil {
			set = make(map[string]bool)
			g.VF[v] = set
		}
		if set[fn] {
			return false
		}
		set[fn] = true
		return true
	}
	flowVF := func(dst int32, src ir.Opd) bool {
		changed := false
		switch src.Kind {
		case ir.FuncOpd:
			changed = addVF(dst, src.Fn)
		case ir.VarOpd:
			for fn := range g.VF[src.Var] {
				if addVF(dst, fn) {
					changed = true
				}
			}
		}
		return changed
	}

	// heapVF approximates function pointers stored in memory,
	// field-sensitively by offset but object-insensitively: the
	// context-sensitive pointer analysis refines this later, but the
	// call graph needs a first answer (the paper accepts incomplete
	// call graphs here, Section 5.5).
	heapVF := make(map[int64]map[string]bool)
	addHeapVF := func(off int64, fn string) bool {
		set := heapVF[off]
		if set == nil {
			set = make(map[string]bool)
			heapVF[off] = set
		}
		if set[fn] {
			return false
		}
		set[fn] = true
		return true
	}

	// flows reports whether src can carry a function value: a function
	// name, or a variable whose vF is not empty. Most operands cannot,
	// so the loop below tests this before resolving a destination.
	flows := func(src ir.Opd) bool {
		return src.Kind == ir.FuncOpd || src.Kind == ir.VarOpd && len(g.VF[src.Var]) > 0
	}

	// Fixpoint: assignments, loads/stores, and call/return wiring feed
	// vF and the heap vF; callees are resolved from vF. Only growth of
	// the two vF relations forces another pass: nothing in the loop
	// reads edges, and a call's wiring runs on every visit whether or
	// not its edge is new. The first pass also records the extern
	// callees of direct calls and the indirect call sites, whose
	// extern callees are read off the final vF below.
	type indirectCall struct {
		id     int
		callee int32
	}
	var indirect []indirectCall
	for first, changed := true, true; changed; first = false {
		changed = false
		c := prog.Cursor(0, prog.NumInstrs())
		for c.Next() {
			in := c.Inst
			switch in.Op {
			case ir.Assign:
				if src := in.Src(); flows(src) {
					if dst := in.Dst(); dst.Kind == ir.VarOpd && flowVF(dst.Var, src) {
						changed = true
					}
				}
			case ir.Store:
				switch src := in.Src(); src.Kind {
				case ir.FuncOpd:
					if addHeapVF(in.Off(), src.Fn) {
						changed = true
					}
				case ir.VarOpd:
					for fn := range g.VF[src.Var] {
						if addHeapVF(in.Off(), fn) {
							changed = true
						}
					}
				}
			case ir.Load:
				if fns := heapVF[in.Off()]; len(fns) > 0 {
					if dst := in.Dst(); dst.Kind == ir.VarOpd {
						for fn := range fns {
							if addVF(dst.Var, fn) {
								changed = true
							}
						}
					}
				}
			case ir.Call:
				// Resolve callees.
				var callees []string
				switch callee := in.Callee(); callee.Kind {
				case ir.FuncOpd:
					callees = []string{callee.Fn}
					if _, defined := prog.Funcs[callee.Fn]; !defined && first {
						g.ExternCalls[in.ID] = append(g.ExternCalls[in.ID], callee.Fn)
					}
				case ir.VarOpd:
					for fn := range g.VF[callee.Var] {
						callees = append(callees, fn)
					}
					if first {
						indirect = append(indirect, indirectCall{in.ID, callee.Var})
					}
				}
				for _, fn := range callees {
					target, defined := prog.Funcs[fn]
					if !defined {
						// Implicit calls through runtime registries.
						for _, argIdx := range implicitByFn[fn] {
							if argIdx < in.NumArgs() {
								a := in.Arg(argIdx)
								switch a.Kind {
								case ir.FuncOpd:
									addEdge(in.ID, a.Fn)
								case ir.VarOpd:
									for efn := range g.VF[a.Var] {
										addEdge(in.ID, efn)
									}
								}
							}
						}
						continue
					}
					addEdge(in.ID, fn)
					// Parameter wiring.
					for i := 0; i < in.NumArgs() && i < target.NumParams; i++ {
						if arg := in.Arg(i); flows(arg) && flowVF(target.Param(i), arg) {
							changed = true
						}
					}
					// Return wiring.
					if ret := (ir.Opd{Kind: ir.VarOpd, Var: target.RetVal}); target.RetVal >= 0 && flows(ret) {
						if dst := in.Dst(); dst.Kind == ir.VarOpd && flowVF(dst.Var, ret) {
							changed = true
						}
					}
				}
			}
		}
	}

	// Materialize sorted edge lists, callers, and indirect extern
	// call targets.
	for id, set := range edgeSet {
		for fn := range set {
			g.Edges[id] = append(g.Edges[id], fn)
			g.Callers[fn] = append(g.Callers[fn], id)
		}
		sort.Strings(g.Edges[id])
	}
	for fn := range g.Callers {
		sort.Ints(g.Callers[fn])
	}
	for _, call := range indirect {
		for fn := range g.VF[call.callee] {
			if _, defined := prog.Funcs[fn]; !defined {
				g.ExternCalls[call.id] = append(g.ExternCalls[call.id], fn)
			}
		}
		sort.Strings(g.ExternCalls[call.id])
	}

	g.computeReachable()
	return g
}

// computeReachable marks functions reachable from the entry (and from
// the synthetic global-initializer function).
func (g *Graph) computeReachable() {
	var work []string
	push := func(fn string) {
		if _, ok := g.Prog.Funcs[fn]; ok && !g.Reachable[fn] {
			g.Reachable[fn] = true
			work = append(work, fn)
		}
	}
	for _, e := range g.Entries {
		push(e)
	}
	push(ir.InitFuncName)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		f := g.Prog.Funcs[fn]
		for id := f.First; id < f.End; id++ {
			for _, callee := range g.Edges[id] {
				push(callee)
			}
		}
	}
}

// CallSites returns the IDs of fn's CALL instructions that have at
// least one resolved defined callee.
func (g *Graph) CallSites(fn string) []int {
	f := g.Prog.Funcs[fn]
	if f == nil {
		return nil
	}
	var out []int
	for id := f.First; id < f.End; id++ {
		if len(g.Edges[id]) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// ReachableFuncs returns the reachable function names, sorted.
func (g *Graph) ReachableFuncs() []string {
	out := make([]string, 0, len(g.Reachable))
	for fn := range g.Reachable {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}
