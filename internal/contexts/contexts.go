// Package contexts implements the cloning-based context numbering of
// Whaley and Lam that the paper adopts (Section 5.2): strongly
// connected components of the call graph are reduced to single nodes,
// a topological order is found, and individual call paths are numbered
// as calling contexts. Each context number of a function represents a
// unique call path from the program entry; the context-sensitive call
// graph cc(c0, i, c1, f) maps a caller context through a call site to
// a callee context.
//
// Real programs produce astronomically many contexts (the paper's svn
// run exceeds 2 billion region pairs); like bddbddb, downstream phases
// store context-indexed relations in BDDs. This package additionally
// supports a context cap: when a function's path count would exceed
// the cap, paths are merged modulo the cap — a sound (merging only)
// degradation the paper's prototype did not need because BuDDy could
// hold the full count. NewKCFA and NewOrigin are the cheaper
// alternatives: one token walk (tokens.go) numbers k-CFA call strings
// or origin call sites instead of full call paths.
package contexts

import (
	"repro/internal/callgraph"
	"repro/internal/ir"
)

// Edge identifies one call-graph edge: call instruction i invoking
// callee f (the paper's (i, f) pairs).
type Edge struct {
	Instr  int
	Callee string
}

// Numbering holds per-function context counts and per-edge context
// offsets.
type Numbering struct {
	G *callgraph.Graph

	// SCC maps each reachable function to its component ID; functions
	// in the same component share context numbering.
	SCC map[string]int
	// Order lists component IDs in topological order (callers first).
	Order [][]string
	// Count is the number of contexts of each reachable function,
	// after capping.
	Count map[string]uint64
	// Offset is the context offset of each cross-component edge.
	Offset map[Edge]uint64
	// Cap is the applied per-function context cap (0 = unlimited).
	Cap uint64
	// Capped reports whether any function hit the cap.
	Capped bool

	// tokens is non-nil when the numbering was produced by NewKCFA or
	// NewOrigin; it switches MapContext to token semantics. Such
	// numberings leave SCC, Order and Offset empty.
	tokens *tokens
}

// Number computes the context numbering for the reachable part of g.
// cap bounds the per-function context count (0 means unlimited).
func Number(g *callgraph.Graph, cap uint64) *Numbering {
	n := &Numbering{
		G:      g,
		SCC:    make(map[string]int),
		Count:  make(map[string]uint64),
		Offset: make(map[Edge]uint64),
		Cap:    cap,
	}
	funcs := g.ReachableFuncs()
	n.computeSCCs(funcs)
	n.number(funcs)
	return n
}

// callEdges lists fn's resolved call edges in deterministic order.
func (n *Numbering) callEdges(fn string) []Edge {
	f := n.G.Prog.Funcs[fn]
	if f == nil {
		return nil
	}
	var out []Edge
	for id := f.First; id < f.End; id++ {
		for _, callee := range n.G.Edges[id] {
			if n.G.Reachable[callee] {
				out = append(out, Edge{Instr: id, Callee: callee})
			}
		}
	}
	return out
}

// computeSCCs condenses the reachable call graph. The Tarjan run
// lives in callgraph.Condense, with the same traversal order (and so
// the same component numbering) this package used when it owned the
// algorithm.
func (n *Numbering) computeSCCs(funcs []string) {
	dag := n.G.Condense()
	n.Order = dag.Comps
	for fn, id := range dag.CompOf {
		n.SCC[fn] = id
	}
}

// number assigns context counts and edge offsets in topological order.
func (n *Numbering) number(funcs []string) {
	// Roots: every entry and the synthetic global initializer each
	// have one context.
	roots := map[string]bool{ir.InitFuncName: true}
	for _, e := range n.G.Entries {
		roots[e] = true
	}

	// Incoming cross-component edges per component, in deterministic
	// order (component order of callers, then instruction ID).
	incoming := make(map[int][]Edge)
	edgeCaller := make(map[Edge]string)
	for _, comp := range n.Order {
		for _, fn := range comp {
			for _, e := range n.callEdges(fn) {
				if n.SCC[e.Callee] == n.SCC[fn] {
					continue // intra-component: context passes through
				}
				incoming[n.SCC[e.Callee]] = append(incoming[n.SCC[e.Callee]], e)
				edgeCaller[e] = fn
			}
		}
	}

	for id, comp := range n.Order {
		var count uint64
		for _, fn := range comp {
			if roots[fn] && n.G.Reachable[fn] {
				count++
			}
		}
		for _, e := range incoming[id] {
			n.Offset[e] = count
			callerCount := n.Count[edgeCaller[e]]
			count += callerCount
			if n.Cap != 0 && count >= n.Cap {
				count = n.Cap
				n.Capped = true
			}
		}
		if count == 0 {
			// Reachable only through cycles from a root component that
			// includes it; give it one context as a base.
			count = 1
		}
		for _, fn := range comp {
			n.Count[fn] = count
		}
	}
}

// MapContext maps a caller context through a call edge to the callee
// context — one tuple of the paper's cc relation.
func (n *Numbering) MapContext(caller string, callerCtx uint64, e Edge) uint64 {
	if ts := n.tokens; ts != nil {
		// The token walk gives every reachable function a token per
		// context, so only an out-of-range caller context has none.
		// It maps to context 0, as does a token the walk never reached.
		if reps := ts.rep[caller]; callerCtx < uint64(len(reps)) {
			if i, ok := ts.idx[e.Callee][ts.push(reps[callerCtx], e)]; ok {
				return i
			}
		}
		return 0
	}
	off, mod, _ := n.EdgeMap(caller, e)
	return Shift(callerCtx, off, mod)
}

// EdgeMap gives MapContext's map for the call edge e from caller in
// arithmetic form, so a caller can compute it once per edge:
// MapContext(caller, c, e) == Shift(c, off, mod) for every c. ok is
// false for token numberings (NewKCFA, NewOrigin), whose map is a
// table lookup per context.
func (n *Numbering) EdgeMap(caller string, e Edge) (off, mod uint64, ok bool) {
	if n.tokens != nil {
		return 0, 0, false
	}
	// An unreachable function has no component; SCC's zero value is
	// a real component ID, so compare only when both have one.
	from, okFrom := n.SCC[caller]
	to, okTo := n.SCC[e.Callee]
	if okFrom && okTo && from == to {
		// Recursive (intra-component) calls reuse the caller context:
		// the standard treatment after SCC reduction.
		return 0, n.Count[e.Callee], true
	}
	return n.Offset[e], n.Count[e.Callee], true
}

// Shift applies an EdgeMap to a caller context: off + c, modulo mod
// when mod is not 0.
func Shift(c, off, mod uint64) uint64 {
	c += off
	if mod > 0 {
		c %= mod
	}
	return c
}

// TotalContexts sums context counts over all reachable functions.
func (n *Numbering) TotalContexts() uint64 {
	var total uint64
	for _, c := range n.Count {
		total += c
	}
	return total
}

// MaxCount returns the largest per-function context count.
func (n *Numbering) MaxCount() uint64 {
	var m uint64
	for _, c := range n.Count {
		if c > m {
			m = c
		}
	}
	return m
}
