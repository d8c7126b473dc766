package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// BuildDirect is the incremental fast path: when the program moves no
// function values through variables or memory, the vF fixpoint of
// BuildEntries is vacuous and the call graph is a single linear scan
// over CALL instructions. It reports ok=false — build nothing — when
// the precondition does not hold, and callers fall back to
// BuildEntries. The precondition is checked exactly, so for any
// program where BuildDirect succeeds its Graph is identical to
// BuildEntries' (TestBuildDirectParity pins this).
//
// The scan is what makes re-analysis after an edit cheap: instruction
// IDs shift under edits, so edges are recomputed from the relinked
// program rather than patched, but without the quadratic fixpoint the
// phase is a small fraction of a full rebuild.
func BuildDirect(prog *ir.Program, entries []string, implicit []ImplicitSpec) (*Graph, bool) {
	if implicit == nil {
		implicit = DefaultImplicitSpecs
	}
	implicitByFn := make(map[string][]int)
	for _, s := range implicit {
		implicitByFn[s.Fn] = append(implicitByFn[s.Fn], s.EntryArg)
	}

	// Precondition: a FuncOpd may appear only as a direct callee, or as
	// an extern call's argument at an implicit-spec position. Any other
	// occurrence (assigned, stored, passed to a defined function or a
	// non-registered extern slot) could seed the vF relation, and any
	// VarOpd callee could consume it — both require the full fixpoint.
	c := prog.Cursor(0, prog.NumInstrs())
	for c.Next() {
		in := c.Inst
		if in.Src().Kind == ir.FuncOpd || in.Base().Kind == ir.FuncOpd || in.Dst().Kind == ir.FuncOpd {
			return nil, false
		}
		callee := in.Callee()
		if in.Op != ir.Call {
			if callee.Kind == ir.FuncOpd {
				return nil, false
			}
			continue
		}
		switch callee.Kind {
		case ir.FuncOpd:
		case ir.VarOpd:
			return nil, false
		}
		_, defined := prog.Funcs[callee.Fn]
		for i := 0; i < in.NumArgs(); i++ {
			if in.Arg(i).Kind != ir.FuncOpd {
				continue
			}
			if defined || callee.Kind != ir.FuncOpd {
				return nil, false
			}
			ok := false
			for _, argIdx := range implicitByFn[callee.Fn] {
				if argIdx == i {
					ok = true
				}
			}
			if !ok {
				return nil, false
			}
		}
	}

	entry := ""
	if len(entries) > 0 {
		entry = entries[0]
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
	addEdge := func(instrID int, fn string, seen map[string]bool) {
		if _, def := prog.Funcs[fn]; !def || seen[fn] {
			return
		}
		seen[fn] = true
		g.Edges[instrID] = append(g.Edges[instrID], fn)
		g.Callers[fn] = append(g.Callers[fn], instrID)
	}
	c = prog.Cursor(0, prog.NumInstrs())
	for c.Next() {
		in := c.Inst
		if in.Op != ir.Call {
			continue
		}
		callee := in.Callee()
		if callee.Kind != ir.FuncOpd {
			continue
		}
		fn := callee.Fn
		if _, defined := prog.Funcs[fn]; defined {
			seen := make(map[string]bool, 1)
			addEdge(in.ID, fn, seen)
			continue
		}
		g.ExternCalls[in.ID] = append(g.ExternCalls[in.ID], fn)
		seen := make(map[string]bool)
		for _, argIdx := range implicitByFn[fn] {
			if argIdx < in.NumArgs() {
				if a := in.Arg(argIdx); a.Kind == ir.FuncOpd {
					addEdge(in.ID, a.Fn, seen)
				}
			}
		}
		sort.Strings(g.Edges[in.ID])
	}
	for fn := range g.Callers {
		sort.Ints(g.Callers[fn])
	}
	g.computeReachable()
	return g, true
}
