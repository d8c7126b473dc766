package datalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/trace"
)

// Term is one atom of a rule: a relation applied to variables. Vars
// must have one named variable per relation attribute. Neg marks a
// negated body atom; every variable of a negated atom must also appear
// in a positive atom of the same rule (safe stratified negation — the
// solver does not re-derive negated relations, so callers must fully
// compute them first).
type Term struct {
	Rel  *Relation
	Vars []string
	Neg  bool
}

// T builds a positive atom.
func T(rel *Relation, vars ...string) Term { return Term{Rel: rel, Vars: vars} }

// N builds a negated atom.
func N(rel *Relation, vars ...string) Term { return Term{Rel: rel, Vars: vars, Neg: true} }

// Rule is a Horn clause Head :- Body. The head must be positive.
type Rule struct {
	Head Term
	Body []Term
	// name is the Datalog-style rendering, computed once for trace
	// span labels.
	name string
}

// NewRule builds a rule and validates variable/domain consistency and
// negation safety.
func NewRule(head Term, body ...Term) *Rule {
	r := &Rule{Head: head, Body: body}
	r.validate()
	var sb strings.Builder
	sb.WriteString(r.Head.Rel.Name)
	sb.WriteString(":-")
	for i, t := range r.Body {
		if i > 0 {
			sb.WriteByte(',')
		}
		if t.Neg {
			sb.WriteByte('!')
		}
		sb.WriteString(t.Rel.Name)
	}
	r.name = sb.String()
	return r
}

// Name renders the rule as head:-body relation names (negated atoms
// prefixed with !) — the label its fixpoint spans carry.
func (r *Rule) Name() string { return r.name }

func (r *Rule) validate() {
	if r.Head.Neg {
		panic("datalog: negated head")
	}
	varDom := make(map[string]*LogicalDomain)
	check := func(t Term) {
		if len(t.Vars) != t.Rel.Arity() {
			panic(fmt.Sprintf("datalog: atom %s has %d vars, relation arity %d",
				t.Rel.Name, len(t.Vars), t.Rel.Arity()))
		}
		for i, v := range t.Vars {
			d := t.Rel.attrs[i].Dom
			if prev, ok := varDom[v]; ok && prev != d {
				panic(fmt.Sprintf("datalog: variable %s used with domains %s and %s", v, prev.Name, d.Name))
			}
			varDom[v] = d
		}
	}
	positive := make(map[string]bool)
	for _, t := range r.Body {
		check(t)
		if !t.Neg {
			for _, v := range t.Vars {
				positive[v] = true
			}
		}
	}
	check(r.Head)
	for _, t := range r.Body {
		if !t.Neg {
			continue
		}
		for _, v := range t.Vars {
			if !positive[v] {
				panic(fmt.Sprintf("datalog: unsafe negation: variable %s of %s not bound positively", v, t.Rel.Name))
			}
		}
	}
	for _, v := range r.Head.Vars {
		if !positive[v] {
			panic(fmt.Sprintf("datalog: head variable %s not bound in body", v))
		}
	}
}

// evalEnv assigns every rule variable a private "evaluation" instance
// of its logical domain, disjoint from all relation schema instances.
type evalEnv struct {
	p     *Program
	insts map[string]*bdd.Domain
	next  map[*LogicalDomain]int
	// order and sizes are joinOrder's reusable buffers.
	order []int
	sizes []uint64
}

func newEvalEnv(p *Program) *evalEnv {
	return &evalEnv{p: p, insts: make(map[string]*bdd.Domain), next: make(map[*LogicalDomain]int)}
}

// evalScratch returns the program's reusable evaluation environment,
// reset for a fresh derivation. derive runs on the single-threaded
// manager, so one scratch env per program suffices; reusing it avoids
// two map allocations per rule evaluation inside solver fixpoints.
func (p *Program) evalScratch() *evalEnv {
	if p.env == nil {
		p.env = newEvalEnv(p)
		return p.env
	}
	clear(p.env.insts)
	clear(p.env.next)
	return p.env
}

func (e *evalEnv) instance(v string, d *LogicalDomain) *bdd.Domain {
	if inst, ok := e.insts[v]; ok {
		return inst
	}
	inst := d.scratchInstance(e.next[d])
	e.next[d]++
	e.insts[v] = inst
	return inst
}

// atomBDD renames one atom's relation contents from its schema
// instances onto the rule's evaluation instances. override, when
// non-nil, replaces the relation's contents (semi-naive evaluation
// passes deltas).
func (r *Rule) atomBDD(env *evalEnv, t Term, override *bdd.Node) bdd.Node {
	n := t.Rel.node
	if override != nil {
		n = *override
	}
	for i, v := range t.Vars {
		inst := t.Rel.attrs[i].Dom.Instance(t.Rel.attrs[i].Inst)
		target := env.instance(v, t.Rel.attrs[i].Dom)
		n = env.p.renameInstance(n, inst, target)
	}
	return n
}

// Apply evaluates the rule once against current relation contents and
// merges derived tuples into the head. It reports whether the head
// changed.
func (p *Program) Apply(r *Rule) bool {
	derived := p.derive(r, -1, bdd.False)
	merged := p.M.Or(r.Head.Rel.node, derived)
	if merged == r.Head.Rel.node {
		return false
	}
	r.Head.Rel.node = merged
	return true
}

// joinOrder returns the body indices of r's positive atoms in the order
// derive ANDs them. Rules with at most two positive atoms keep body
// order: AND is commutative there, so counting would only add cost.
// Longer bodies are planned greedily, as bddbddb orders a rule's
// relational product: the smallest atom first (by tuple count, reading
// delta for the atom it overrides), then, repeatedly, the smallest
// remaining atom that shares a variable with the atoms already placed
// (the smallest of all when none does). Ties break by body index, so
// the plan — and with it the kernel's counters — is deterministic. The
// returned slice is env's buffer, valid until the next call.
func (p *Program) joinOrder(r *Rule, env *evalEnv, deltaIdx int, delta bdd.Node) []int {
	order := env.order[:0]
	for i, t := range r.Body {
		if !t.Neg {
			order = append(order, i)
		}
	}
	env.order = order
	if len(order) <= 2 {
		return order
	}
	size := env.sizes[:0]
	for _, i := range order {
		n := r.Body[i].Rel.node
		if i == deltaIdx {
			n = delta
		}
		size = append(size, p.countTuples(n, r.Body[i].Rel.attrs))
	}
	env.sizes = size
	for k := range order {
		// order[k:] holds the unplanned atoms; move the best to k.
		best, bestShares := -1, false
		for j := k; j < len(order); j++ {
			shares := sharesVar(r.Body[order[j]], r.Body, order[:k])
			if best < 0 || shares && !bestShares ||
				shares == bestShares && (size[j] < size[best] ||
					size[j] == size[best] && order[j] < order[best]) {
				best, bestShares = j, shares
			}
		}
		order[k], order[best] = order[best], order[k]
		size[k], size[best] = size[best], size[k]
	}
	return order
}

// sharesVar reports whether t names a variable of one of the placed
// body atoms.
func sharesVar(t Term, body []Term, placed []int) bool {
	for _, v := range t.Vars {
		for _, i := range placed {
			for _, w := range body[i].Vars {
				if v == w {
					return true
				}
			}
		}
	}
	return false
}

// derive evaluates the rule body and returns the derived tuples over
// the head schema, without merging them. When deltaIdx >= 0, the
// positive body atom at that index reads delta instead of its
// relation's full contents (semi-naive evaluation).
func (p *Program) derive(r *Rule, deltaIdx int, delta bdd.Node) bdd.Node {
	m := p.M
	env := p.evalScratch()
	acc := bdd.True
	for _, i := range p.joinOrder(r, env, deltaIdx, delta) {
		t := r.Body[i]
		var override *bdd.Node
		if i == deltaIdx {
			override = &delta
		}
		acc = m.And(acc, r.atomBDD(env, t, override))
		if acc == bdd.False {
			return bdd.False
		}
	}
	for _, t := range r.Body {
		if !t.Neg {
			continue
		}
		acc = m.Diff(acc, r.atomBDD(env, t, nil))
		if acc == bdd.False {
			return bdd.False
		}
	}
	// Project onto head variables and move them to the head schema:
	// exists(all eval insts). acc AND (evalInst(v_j) == headAttr_j).
	head := r.Head
	constrain := bdd.True
	for i, v := range head.Vars {
		attrInst := head.Rel.attrs[i].Dom.Instance(head.Rel.attrs[i].Inst)
		constrain = m.And(constrain, env.insts[v].EqDomain(attrInst))
	}
	// Build the quantification cube in sorted-variable order: map
	// iteration order would vary the AND association run to run, which
	// perturbs the kernel's cache/node counters (and thus reports)
	// without changing the result.
	vars := make([]string, 0, len(env.insts))
	for v := range env.insts {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	cube := bdd.True
	for _, v := range vars {
		cube = m.And(cube, env.insts[v].Cube())
	}
	return m.AndExists(acc, constrain, cube)
}

// SolveSemiNaive runs the rules to fixpoint with semi-naive
// (differential) evaluation, as bddbddb does: after the first round, a
// rule whose body reads relations derived by the rule set is only
// re-evaluated against the tuples that are NEW since its last
// evaluation, once per recursive atom. Non-recursive rules run exactly
// once, and a rule set with no recursive atom (a non-recursive stratum)
// finishes after that single round. Negated atoms must belong to an
// earlier stratum (they are read in full and must not be heads in the
// same rule set — enforced). It returns the number of rounds.
//
// When ctx carries a trace.Tracer the solve becomes a span with one
// child span per round and, inside each round, one child per rule
// evaluation carrying the delta relation and new-tuple count (the
// per-rule timing bddbddb printed with -v). Counting tuples only
// happens while tracing: the tracing-off path adds zero work and zero
// allocations.
func (p *Program) SolveSemiNaive(ctx context.Context, rules []*Rule) int {
	m := p.M
	derivedBy, recursive := stratum(rules)
	_, solve := trace.StartSpan(ctx, "datalog.seminaive")
	if solve != nil {
		solve.Attrs(trace.Int("rules", len(rules)))
	}
	// Round 0: evaluate every rule in full; the union of everything
	// derived (plus pre-seeded tuples, which count as new) is the
	// first delta.
	delta := make(map[*Relation]bdd.Node)
	for rel := range derivedBy {
		delta[rel] = rel.node
	}
	rounds := 1
	roundSp := solve.Child("round")
	nodes0 := 0
	if solve != nil {
		nodes0 = m.NumNodes()
	}
	for _, r := range rules {
		ruleSp := roundSp.Child("rule:" + r.Name())
		d := p.derive(r, -1, bdd.False)
		newTuples := m.Diff(d, r.Head.Rel.node)
		if newTuples != bdd.False {
			r.Head.Rel.node = m.Or(r.Head.Rel.node, newTuples)
			delta[r.Head.Rel] = m.Or(delta[r.Head.Rel], newTuples)
		}
		if ruleSp != nil {
			ruleSp.End(trace.Uint64("new_tuples", p.countTuples(newTuples, r.Head.Rel.attrs)))
		}
	}
	if roundSp != nil {
		p.endRoundSpan(roundSp, rounds, delta, nodes0)
	}
	for {
		// Quiesce? Only a delta some body atom reads can derive more.
		anyDelta := false
		for rel, d := range delta {
			if d != bdd.False && recursive[rel] {
				anyDelta = true
			}
		}
		if !anyDelta {
			solve.End(trace.Int("rounds", rounds))
			return rounds
		}
		rounds++
		roundSp = solve.Child("round")
		if solve != nil {
			nodes0 = m.NumNodes()
		}
		next := make(map[*Relation]bdd.Node)
		for rel := range derivedBy {
			next[rel] = bdd.False
		}
		for _, r := range rules {
			for i, t := range r.Body {
				if t.Neg || !derivedBy[t.Rel] {
					continue
				}
				d := delta[t.Rel]
				if d == bdd.False {
					continue
				}
				ruleSp := roundSp.Child("rule:" + r.Name())
				derivedNow := p.derive(r, i, d)
				newTuples := m.Diff(derivedNow, r.Head.Rel.node)
				if newTuples != bdd.False {
					r.Head.Rel.node = m.Or(r.Head.Rel.node, newTuples)
					next[r.Head.Rel] = m.Or(next[r.Head.Rel], newTuples)
				}
				if ruleSp != nil {
					ruleSp.End(
						trace.Str("delta_rel", t.Rel.Name),
						trace.Uint64("delta_tuples", p.countTuples(d, t.Rel.attrs)),
						trace.Uint64("new_tuples", p.countTuples(newTuples, r.Head.Rel.attrs)))
				}
			}
		}
		delta = next
		if roundSp != nil {
			p.endRoundSpan(roundSp, rounds, delta, nodes0)
		}
	}
}

// stratum returns the relations a semi-naive rule set derives and,
// among them, the recursive ones: those a positive body atom reads.
// Only a recursive relation's new tuples can fire a rule again, so a
// set with none (every non-recursive stratum) quiesces after round 0.
// Negated relations must belong to an earlier stratum (enforced).
func stratum(rules []*Rule) (derived, recursive map[*Relation]bool) {
	derived = make(map[*Relation]bool)
	for _, r := range rules {
		derived[r.Head.Rel] = true
	}
	recursive = make(map[*Relation]bool)
	for _, r := range rules {
		for _, t := range r.Body {
			switch {
			case t.Neg && derived[t.Rel]:
				panic(fmt.Sprintf("datalog: negated relation %s derived in the same stratum", t.Rel.Name))
			case derived[t.Rel]:
				recursive[t.Rel] = true
			}
		}
	}
	return derived, recursive
}

// endRoundSpan finishes one fixpoint round's span with the delta
// tuple total and BDD node growth — only called while tracing.
func (p *Program) endRoundSpan(sp *trace.Span, round int, delta map[*Relation]bdd.Node, nodesBefore int) {
	var tuples uint64
	for rel, d := range delta {
		if d != bdd.False {
			tuples += p.countTuples(d, rel.attrs)
		}
	}
	sp.End(
		trace.Int("round", round),
		trace.Uint64("delta_tuples", tuples),
		trace.Int("bdd_nodes", p.M.NumNodes()),
		trace.Int("bdd_nodes_delta", p.M.NumNodes()-nodesBefore))
}

// Solve runs the rules to a global fixpoint using naive iteration (a
// round applies every rule once; rounds repeat while anything changed)
// and returns the number of rounds. Tracing mirrors SolveSemiNaive: a
// span per solve, per round, and per changed-rule application.
func (p *Program) Solve(ctx context.Context, rules []*Rule) int {
	_, solve := trace.StartSpan(ctx, "datalog.solve")
	if solve != nil {
		solve.Attrs(trace.Int("rules", len(rules)))
	}
	rounds := 0
	for {
		rounds++
		roundSp := solve.Child("round")
		nodes0 := 0
		if solve != nil {
			nodes0 = p.M.NumNodes()
		}
		changed := false
		changedRules := 0
		for _, r := range rules {
			ruleSp := roundSp.Child("rule:" + r.Name())
			ruleChanged := p.Apply(r)
			if ruleChanged {
				changed = true
				changedRules++
			}
			if ruleSp != nil {
				ruleSp.End(
					trace.Bool("changed", ruleChanged),
					trace.Uint64("head_tuples", r.Head.Rel.Count()))
			}
		}
		if roundSp != nil {
			roundSp.End(
				trace.Int("round", rounds),
				trace.Int("changed_rules", changedRules),
				trace.Int("bdd_nodes", p.M.NumNodes()),
				trace.Int("bdd_nodes_delta", p.M.NumNodes()-nodes0))
		}
		if !changed {
			solve.End(trace.Int("rounds", rounds))
			return rounds
		}
	}
}
