package contexts

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/callgraph"
)

// kState holds the k-CFA tables inside a Numbering. A context is the
// string of the last k call-site instruction IDs on the path from an
// entry ("" at entries). Contexts are numbered densely per function.
type kState struct {
	k int
	// idx maps a function's call string to its dense context index.
	idx map[string]map[string]uint64
	// rep maps a function's context index to a representative call
	// string (the lexicographically smallest when cap-merging folded
	// several strings onto one index).
	rep map[string][]string
}

// NewKCFA computes a k-CFA context numbering: paths that share their
// last k call sites merge into one context. The paper's Section 6.3
// concludes that "reducing calling contexts is an important factor to
// improve scalability" and leaves alternative context sensitivities to
// future work; k-CFA is the classic alternative — context counts are
// bounded by (#call sites)^k regardless of call-path explosion, at
// some precision cost.
//
// The result is a drop-in replacement for Number's output: Count and
// MapContext drive the pointer analysis identically. cap bounds
// per-function context counts (0 = unlimited); overflowing contexts
// merge modulo the cap, as in Number.
func NewKCFA(g *callgraph.Graph, k int, cap uint64) *Numbering {
	n := &Numbering{
		G:      g,
		SCC:    make(map[string]int),
		Count:  make(map[string]uint64),
		Offset: make(map[Edge]uint64),
		Cap:    cap,
		kcfa:   &kState{k: k, idx: make(map[string]map[string]uint64)},
	}
	ks := n.kcfa

	assign := func(fn, cs string) (uint64, bool) {
		m := ks.idx[fn]
		if m == nil {
			m = make(map[string]uint64)
			ks.idx[fn] = m
		}
		if i, ok := m[cs]; ok {
			return i, false
		}
		i := uint64(len(m))
		if cap != 0 && i >= cap {
			// Merge overflow contexts deterministically.
			n.Capped = true
			i = hashString(cs) % cap
			m[cs] = i
			return i, false // count unchanged; treated as existing
		}
		m[cs] = i
		return i, true
	}

	type work struct{ fn, cs string }
	var queue []work
	roots := append([]string{}, g.Entries...)
	roots = append(roots, initFuncNameIfReachable(g)...)
	sort.Strings(roots)
	for _, e := range roots {
		if !g.Reachable[e] {
			continue
		}
		if _, fresh := assign(e, ""); fresh {
			queue = append(queue, work{e, ""})
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		f := g.Prog.Funcs[w.fn]
		if f == nil {
			continue
		}
		for id := f.First; id < f.End; id++ {
			for _, callee := range g.Edges[id] {
				if !g.Reachable[callee] {
					continue
				}
				cs := pushCallString(w.cs, id, ks.k)
				if _, fresh := assign(callee, cs); fresh {
					queue = append(queue, work{callee, cs})
				}
			}
		}
	}

	ks.rep = make(map[string][]string)
	for fn, m := range ks.idx {
		count := uint64(0)
		for _, i := range m {
			if i+1 > count {
				count = i + 1
			}
		}
		n.Count[fn] = count
		reps := make([]string, count)
		filled := make([]bool, count)
		// Deterministic representatives: smallest string per index.
		var strsSorted []string
		for s := range m {
			strsSorted = append(strsSorted, s)
		}
		sort.Strings(strsSorted)
		for _, s := range strsSorted {
			i := m[s]
			if !filled[i] {
				filled[i] = true
				reps[i] = s
			}
		}
		ks.rep[fn] = reps
	}
	// Functions reachable but never assigned (possible only through
	// un-walked edges) get one context.
	for _, fn := range g.ReachableFuncs() {
		if n.Count[fn] == 0 {
			n.Count[fn] = 1
		}
	}
	return n
}

func initFuncNameIfReachable(g *callgraph.Graph) []string {
	const name = "__global_init"
	if g.Reachable[name] {
		return []string{name}
	}
	return nil
}

// mapContextKCFA maps a caller context through an edge under k-CFA.
func (n *Numbering) mapContextKCFA(caller string, callerCtx uint64, e Edge) uint64 {
	ks := n.kcfa
	reps := ks.rep[caller]
	if callerCtx >= uint64(len(reps)) {
		return 0
	}
	next := pushCallString(reps[callerCtx], e.Instr, ks.k)
	if i, ok := ks.idx[e.Callee][next]; ok {
		return i
	}
	return 0
}

// pushCallString appends a call site to a call string, keeping the
// last k sites.
func pushCallString(cs string, instr int, k int) string {
	if k <= 0 {
		return ""
	}
	var parts []string
	if cs != "" {
		parts = strings.Split(cs, ",")
	}
	parts = append(parts, strconv.Itoa(instr))
	if len(parts) > k {
		parts = parts[len(parts)-k:]
	}
	return strings.Join(parts, ",")
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
