package contexts

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/ir"
)

// tokens holds the tables of a token numbering inside a Numbering. A
// context is a token string, "" at the roots; push turns the caller's
// token into the callee's across one call edge. Tokens are numbered
// densely per function.
type tokens struct {
	push func(tok string, e Edge) string
	// idx maps a function's token to its dense context index.
	idx map[string]map[string]uint64
	// rep maps a function's context index to a representative token
	// (the lexicographically smallest when cap-merging folded several
	// tokens onto one index).
	rep map[string][]string
}

// NewKCFA computes a k-CFA context numbering: a context is the string
// of the last k call-site instruction IDs on the path from an entry,
// so paths that share their last k call sites merge into one context.
// The paper's Section 6.3 concludes that "reducing calling contexts is
// an important factor to improve scalability" and leaves alternative
// context sensitivities to future work; k-CFA is the classic
// alternative — context counts are bounded by (#call sites)^k
// regardless of call-path explosion, at some precision cost.
//
// The result is a drop-in replacement for Number's output: Count and
// MapContext drive the pointer analysis identically. cap bounds
// per-function context counts (0 = unlimited); overflowing contexts
// merge modulo the cap, as in Number.
func NewKCFA(g *callgraph.Graph, k int, cap uint64) *Numbering {
	return numberTokens(g, cap, func(cs string, e Edge) string {
		return pushCallString(cs, e.Instr, k)
	})
}

// NewOrigin computes an origin-sensitive context numbering, the
// allocation-site-based policy of origin-go-tools adapted to this IR:
// a context is the call-site instruction ID of the nearest enclosing
// call into an origin function (one of originFns, which directly
// allocate a region or object), or "" when no origin call is on the
// path. Functions reached from two different region-creating call
// sites get two contexts; everything reached from the same origin
// merges. Context counts are bounded by the number of origin call
// sites plus one, so the policy scales like 1-CFA restricted to
// allocation structure.
//
// The result is a drop-in replacement for Number's output, with cap
// applied as in NewKCFA.
func NewOrigin(g *callgraph.Graph, cap uint64, originFns map[string]bool) *Numbering {
	return numberTokens(g, cap, func(tok string, e Edge) string {
		if originFns[e.Callee] {
			return strconv.Itoa(e.Instr)
		}
		return tok
	})
}

// numberTokens walks g breadth-first from its roots (every entry and
// the synthetic global initializer, each with the token ""), pushing
// tokens across call edges, and gives each function one context per
// token that reaches it. Once a function holds cap contexts, further
// tokens merge onto index hashString(tok) % cap — a pure function of
// the token, independent of discovery order — and set Capped.
func numberTokens(g *callgraph.Graph, cap uint64, push func(string, Edge) string) *Numbering {
	ts := &tokens{push: push, idx: make(map[string]map[string]uint64), rep: make(map[string][]string)}
	n := &Numbering{G: g, Count: make(map[string]uint64), Cap: cap, tokens: ts}

	// assign numbers tok for fn and reports whether it opened a new
	// context, which the walk must then visit.
	assign := func(fn, tok string) bool {
		m := ts.idx[fn]
		if m == nil {
			m = make(map[string]uint64)
			ts.idx[fn] = m
		}
		if _, ok := m[tok]; ok {
			return false
		}
		i := uint64(len(m))
		if cap != 0 && i >= cap {
			n.Capped = true
			m[tok] = hashString(tok) % cap
			return false
		}
		m[tok] = i
		return true
	}

	type work struct{ fn, tok string }
	var queue []work
	roots := append(append([]string{}, g.Entries...), ir.InitFuncName)
	sort.Strings(roots)
	for _, fn := range roots {
		if g.Reachable[fn] && assign(fn, "") {
			queue = append(queue, work{fn, ""})
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, e := range n.callEdges(w.fn) {
			tok := push(w.tok, e)
			if assign(e.Callee, tok) {
				queue = append(queue, work{e.Callee, tok})
			}
		}
	}

	for fn, m := range ts.idx {
		toks := make([]string, 0, len(m))
		var count uint64
		for tok, i := range m {
			toks = append(toks, tok)
			count = max(count, i+1)
		}
		// Walking the sorted tokens backwards leaves the smallest
		// token of each index as its representative.
		sort.Strings(toks)
		reps := make([]string, count)
		for j := len(toks) - 1; j >= 0; j-- {
			reps[m[toks[j]]] = toks[j]
		}
		n.Count[fn] = count
		ts.rep[fn] = reps
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
