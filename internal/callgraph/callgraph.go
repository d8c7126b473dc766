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
	addEdge := func(instrID int, fn string) bool {
		if _, defined := prog.Funcs[fn]; !defined {
			return false
		}
		set := edgeSet[instrID]
		if set == nil {
			set = make(map[string]bool)
			edgeSet[instrID] = set
		}
		if set[fn] {
			return false
		}
		set[fn] = true
		return true
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

	// Fixpoint: assignments, loads/stores, call/return wiring, and
	// edge resolution all feed each other.
	for changed := true; changed; {
		changed = false
		c := prog.Cursor(0, prog.NumInstrs())
		for c.Next() {
			in := c.Inst
			switch in.Op {
			case ir.Assign:
				if in.Dst().Kind == ir.VarOpd && flowVF(in.Dst().Var, in.Src()) {
					changed = true
				}
			case ir.Store:
				switch in.Src().Kind {
				case ir.FuncOpd:
					if addHeapVF(in.Off(), in.Src().Fn) {
						changed = true
					}
				case ir.VarOpd:
					for fn := range g.VF[in.Src().Var] {
						if addHeapVF(in.Off(), fn) {
							changed = true
						}
					}
				}
			case ir.Load:
				if in.Dst().Kind == ir.VarOpd {
					for fn := range heapVF[in.Off()] {
						if addVF(in.Dst().Var, fn) {
							changed = true
						}
					}
				}
			case ir.Call:
				// Resolve callees.
				var callees []string
				switch in.Callee().Kind {
				case ir.FuncOpd:
					callees = []string{in.Callee().Fn}
				case ir.VarOpd:
					for fn := range g.VF[in.Callee().Var] {
						callees = append(callees, fn)
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
									if addEdge(in.ID, a.Fn) {
										changed = true
									}
								case ir.VarOpd:
									for efn := range g.VF[a.Var] {
										if addEdge(in.ID, efn) {
											changed = true
										}
									}
								}
							}
						}
						continue
					}
					if addEdge(in.ID, fn) {
						changed = true
					}
					// Parameter wiring.
					for i := 0; i < in.NumArgs() && i < target.NumParams; i++ {
						if flowVF(target.Param(i), in.Arg(i)) {
							changed = true
						}
					}
					// Return wiring.
					if in.Dst().Kind == ir.VarOpd && target.RetVal >= 0 {
						if flowVF(in.Dst().Var, ir.Opd{Kind: ir.VarOpd, Var: target.RetVal}) {
							changed = true
						}
					}
				}
			}
		}
	}

	// Materialize sorted edge lists, extern call targets, callers.
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
	c := prog.Cursor(0, prog.NumInstrs())
	for c.Next() {
		in := c.Inst
		if in.Op != ir.Call {
			continue
		}
		switch in.Callee().Kind {
		case ir.FuncOpd:
			if _, defined := prog.Funcs[in.Callee().Fn]; !defined {
				g.ExternCalls[in.ID] = append(g.ExternCalls[in.ID], in.Callee().Fn)
			}
		case ir.VarOpd:
			for fn := range g.VF[in.Callee().Var] {
				if _, defined := prog.Funcs[fn]; !defined {
					g.ExternCalls[in.ID] = append(g.ExternCalls[in.ID], fn)
				}
			}
			sort.Strings(g.ExternCalls[in.ID])
		}
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
