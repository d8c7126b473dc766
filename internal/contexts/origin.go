package contexts

import (
	"sort"
	"strconv"

	"repro/internal/callgraph"
)

// oState holds the origin-sensitivity tables inside a Numbering. A
// context is a single origin token: the call-site instruction ID of
// the nearest enclosing call into an origin function (a function that
// directly allocates a region or object), or "" when no origin call
// is on the path. Tokens are numbered densely per function, exactly
// like k-CFA call strings.
type oState struct {
	// originFns marks the functions whose invocation spawns a fresh
	// origin: calling one from site i switches the callee (and
	// everything below it, until the next origin call) to token i.
	originFns map[string]bool
	idx       map[string]map[string]uint64
	rep       map[string][]string
}

// NewOrigin computes an origin-sensitive context numbering, the
// allocation-site-based policy of origin-go-tools adapted to this IR:
// instead of distinguishing full call paths (cloning) or call-string
// suffixes (k-CFA), contexts are keyed by which origin call site the
// current activation descends from. Functions reached from two
// different region-creating call sites get two contexts; everything
// reached from the same origin merges. Context counts are bounded by
// the number of origin call sites plus one, so the policy scales like
// 1-CFA restricted to allocation structure.
//
// The result is a drop-in replacement for Number's output: Count and
// MapContext drive the pointer analysis identically. cap bounds
// per-function context counts (0 = unlimited); overflowing tokens
// merge modulo the cap, setting Capped, as in Number and NewKCFA.
func NewOrigin(g *callgraph.Graph, cap uint64, originFns map[string]bool) *Numbering {
	n := &Numbering{
		G:      g,
		SCC:    make(map[string]int),
		Count:  make(map[string]uint64),
		Offset: make(map[Edge]uint64),
		Cap:    cap,
		origin: &oState{originFns: originFns, idx: make(map[string]map[string]uint64)},
	}
	os := n.origin

	assign := func(fn, tok string) (uint64, bool) {
		m := os.idx[fn]
		if m == nil {
			m = make(map[string]uint64)
			os.idx[fn] = m
		}
		if i, ok := m[tok]; ok {
			return i, false
		}
		i := uint64(len(m))
		if cap != 0 && i >= cap {
			// Merge overflow tokens deterministically.
			n.Capped = true
			i = hashString(tok) % cap
			m[tok] = i
			return i, false // count unchanged; treated as existing
		}
		m[tok] = i
		return i, true
	}

	type work struct{ fn, tok string }
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
				tok := w.tok
				if originFns[callee] {
					tok = strconv.Itoa(id)
				}
				if _, fresh := assign(callee, tok); fresh {
					queue = append(queue, work{callee, tok})
				}
			}
		}
	}

	os.rep = make(map[string][]string)
	for fn, m := range os.idx {
		count := uint64(0)
		for _, i := range m {
			if i+1 > count {
				count = i + 1
			}
		}
		n.Count[fn] = count
		reps := make([]string, count)
		filled := make([]bool, count)
		// Deterministic representatives: smallest token per index.
		var toksSorted []string
		for s := range m {
			toksSorted = append(toksSorted, s)
		}
		sort.Strings(toksSorted)
		for _, s := range toksSorted {
			i := m[s]
			if !filled[i] {
				filled[i] = true
				reps[i] = s
			}
		}
		os.rep[fn] = reps
	}
	for _, fn := range g.ReachableFuncs() {
		if n.Count[fn] == 0 {
			n.Count[fn] = 1
		}
	}
	return n
}

// mapContextOrigin maps a caller context through an edge under origin
// sensitivity: calling an origin function spawns the site's token,
// every other call inherits the caller's.
func (n *Numbering) mapContextOrigin(caller string, callerCtx uint64, e Edge) uint64 {
	os := n.origin
	tok := ""
	if reps := os.rep[caller]; callerCtx < uint64(len(reps)) {
		tok = reps[callerCtx]
	}
	if os.originFns[e.Callee] {
		tok = strconv.Itoa(e.Instr)
	}
	if i, ok := os.idx[e.Callee][tok]; ok {
		return i
	}
	return 0
}
