package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// SCCGraph is the condensation of the reachable call graph: strongly
// connected components collapsed to single nodes, arranged as a DAG.
// Context numbering (package contexts) numbers against its
// topological order of components.
type SCCGraph struct {
	// Comps lists the components in topological order, callers first
	// (Comps[0] contains an entry); members of each component are
	// sorted. This is exactly the order Tarjan's algorithm emits,
	// reversed — the contexts package has always numbered against it,
	// and it is pinned by golden reports.
	Comps [][]string
	// CompOf maps each reachable function to its component index.
	CompOf map[string]int
}

// Condense computes the SCC DAG of g's reachable subgraph. The
// traversal order (reachable functions sorted by name; call edges in
// instruction order) is deterministic, so two runs over the same graph
// produce identical component numbering.
func (g *Graph) Condense() *SCCGraph {
	sg := &SCCGraph{CompOf: make(map[string]int)}
	funcs := g.ReachableFuncs()

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var comps [][]string

	var strongConnect func(fn string)
	strongConnect = func(fn string) {
		index[fn] = next
		low[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true
		for _, w := range g.calleesInOrder(fn) {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				if low[w] < low[fn] {
					low[fn] = low[w]
				}
			} else if onStack[w] && index[w] < low[fn] {
				low[fn] = index[w]
			}
		}
		if low[fn] == index[fn] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == fn {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, fn := range funcs {
		if _, seen := index[fn]; !seen {
			strongConnect(fn)
		}
	}
	// Tarjan emits components in reverse topological order.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	sg.Comps = comps
	for id, comp := range comps {
		for _, fn := range comp {
			sg.CompOf[fn] = id
		}
	}
	return sg
}

// calleesInOrder lists fn's resolved, reachable callees in call
// instruction order (duplicates included — callers dedupe as needed).
// This is the traversal order context numbering has always used, so
// Condense's component order matches the historical one exactly.
func (g *Graph) calleesInOrder(fn string) []string {
	f := g.Prog.Funcs[fn]
	if f == nil {
		return nil
	}
	var out []string
	for _, in := range f.Instrs {
		if in.Op != ir.Call {
			continue
		}
		for _, callee := range g.Edges[in.ID] {
			if g.Reachable[callee] {
				out = append(out, callee)
			}
		}
	}
	return out
}
