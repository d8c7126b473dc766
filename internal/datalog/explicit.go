package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements an explicit tuple-store evaluation engine over
// the same Program schema and Rule values the BDD engine solves. It
// exists for why-provenance: during semi-naive evaluation it records,
// per derived tuple, one witness — the rule that first produced it plus
// the ground premise facts that fired — which the core layer walks into
// explanation trees. The BDD engine cannot cheaply answer "why is this
// tuple in the relation"; this engine trades the kernel's sharing for
// exactly that question. Results are identical to the BDD engine on the
// same rules and base facts (TestExplicitMatchesBDD pins this).

// Fact is one ground atom: a relation name applied to constant
// arguments. Neg marks an absence premise — the witness used the fact
// NOT holding (stratified negation). WildArg in an argument position of
// a negated fact means the absence was checked for every value of that
// position.
type Fact struct {
	Rel  string
	Args []uint64
	Neg  bool
}

// WildArg is the argument placeholder for a wildcard position of a
// negated premise fact.
const WildArg = ^uint64(0)

// String renders the fact Datalog-style: rel(a,b) or !rel(a,b).
func (f Fact) String() string {
	var sb strings.Builder
	if f.Neg {
		sb.WriteByte('!')
	}
	sb.WriteString(f.Rel)
	sb.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if a == WildArg {
			sb.WriteByte('_')
		} else {
			fmt.Fprintf(&sb, "%d", a)
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// Witness records how a derived tuple was first produced: the rule's
// Name() and the ground body atoms, in rule-body order (positive atoms
// first as written, then negated atoms as written).
type Witness struct {
	Rule     string
	Premises []Fact
}

// factKey identifies one tuple of one relation for witness lookup.
type factKey struct {
	rel  *Relation
	args string
}

func encodeArgs(vals []uint64) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	return string(b)
}

// store holds one relation's tuples: a membership index plus the
// insertion-order slice evaluation iterates (deterministic as long as
// facts are Added in a deterministic order, which every loader in this
// repo guarantees).
type store struct {
	index map[string]bool
	rows  [][]uint64
}

func (s *store) has(key string) bool { return s.index[key] }

func (s *store) add(key string, vals []uint64) bool {
	if s.index == nil {
		s.index = make(map[string]bool)
	}
	if s.index[key] {
		return false
	}
	s.index[key] = true
	s.rows = append(s.rows, append([]uint64(nil), vals...))
	return true
}

// Explicit is the tuple-store engine. It shares a Program's relation
// identities and rule values but keeps its own contents: the Program's
// BDD state is never read or written. Zero-value fields are not usable;
// construct with NewExplicit.
type Explicit struct {
	p       *Program
	stores  map[*Relation]*store
	witness map[factKey]*Witness
	// Rounds accumulates fixpoint rounds across Solve calls, mirroring
	// the BDD solvers' round accounting.
	Rounds int
}

// NewExplicit returns an empty engine over the program's schema.
func NewExplicit(p *Program) *Explicit {
	return &Explicit{
		p:       p,
		stores:  make(map[*Relation]*store),
		witness: make(map[factKey]*Witness),
	}
}

func (e *Explicit) storeOf(r *Relation) *store {
	s := e.stores[r]
	if s == nil {
		s = &store{}
		e.stores[r] = s
	}
	return s
}

// Add inserts one base fact (no witness: base facts are their own
// explanation). It reports whether the tuple was new.
func (e *Explicit) Add(r *Relation, vals ...uint64) bool {
	if len(vals) != r.Arity() {
		panic(fmt.Sprintf("datalog: %s arity %d, got %d values", r.Name, r.Arity(), len(vals)))
	}
	return e.storeOf(r).add(encodeArgs(vals), vals)
}

// Has reports whether the tuple is present.
func (e *Explicit) Has(r *Relation, vals ...uint64) bool {
	return e.storeOf(r).has(encodeArgs(vals))
}

// Count returns the number of tuples in r.
func (e *Explicit) Count(r *Relation) int { return len(e.storeOf(r).rows) }

// Tuples returns r's tuples sorted lexicographically (the order
// Relation.Tuples uses, for differential tests).
func (e *Explicit) Tuples(r *Relation) [][]uint64 {
	rows := e.storeOf(r).rows
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		out[i] = append([]uint64(nil), row...)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// WitnessOf returns the recorded witness for a derived tuple. Base
// facts (and absent tuples) have none: ok is false and the caller
// treats the fact as a leaf.
func (e *Explicit) WitnessOf(r *Relation, vals ...uint64) (*Witness, bool) {
	w, ok := e.witness[factKey{r, encodeArgs(vals)}]
	return w, ok
}

// matchRow checks one stored row against an atom's constant bindings
// and the current variable environment, extending env for newly bound
// variables. It returns the variables it bound (for backtracking), or
// ok=false if the row does not match.
func matchRow(t Term, row []uint64, env map[string]uint64) (bound []string, ok bool) {
	for i, v := range t.Vars {
		if c, has := t.consts[i]; has && row[i] != c {
			for _, b := range bound {
				delete(env, b)
			}
			return nil, false
		}
		if v == Wildcard {
			continue
		}
		if val, has := env[v]; has {
			if val != row[i] {
				for _, b := range bound {
					delete(env, b)
				}
				return nil, false
			}
			continue
		}
		env[v] = row[i]
		bound = append(bound, v)
	}
	return bound, true
}

// groundArgs resolves an atom's arguments under env: constants, then
// bound variables; wildcard positions become WildArg.
func groundArgs(t Term, env map[string]uint64) []uint64 {
	args := make([]uint64, len(t.Vars))
	for i, v := range t.Vars {
		if c, has := t.consts[i]; has {
			args[i] = c
			continue
		}
		if v == Wildcard {
			args[i] = WildArg
			continue
		}
		val, has := env[v]
		if !has {
			panic(fmt.Sprintf("datalog: unbound variable %s in %s", v, t.Rel.Name))
		}
		args[i] = val
	}
	return args
}

// absent reports whether no stored tuple of t.Rel matches the ground
// pattern (WildArg positions match anything).
func (e *Explicit) absent(t Term, pattern []uint64) bool {
	s := e.storeOf(t.Rel)
	wild := false
	for _, a := range pattern {
		if a == WildArg {
			wild = true
			break
		}
	}
	if !wild {
		return !s.has(encodeArgs(pattern))
	}
	for _, row := range s.rows {
		match := true
		for i, a := range pattern {
			if a != WildArg && row[i] != a {
				match = false
				break
			}
		}
		if match {
			return false
		}
	}
	return true
}

// evalRule joins the rule body against current contents and calls emit
// for every derived head tuple with the ground premises that produced
// it. When deltaIdx >= 0, the positive atom at that body index reads
// deltaRows instead of its relation's contents (semi-naive evaluation).
// emit may add tuples to the head relation; rows slices are snapshotted
// per atom before iteration so in-flight growth is not re-joined within
// the same evaluation (matching the BDD engine, which evaluates against
// a fixed node per derive call).
func (e *Explicit) evalRule(r *Rule, deltaIdx int, deltaRows [][]uint64, emit func(vals []uint64, premises []Fact)) {
	var positives []int
	for i, t := range r.Body {
		if !t.Neg {
			positives = append(positives, i)
		}
	}
	// Snapshot each positive atom's row source.
	sources := make([][][]uint64, len(positives))
	for k, i := range positives {
		if i == deltaIdx {
			sources[k] = deltaRows
		} else {
			rows := e.storeOf(r.Body[i].Rel).rows
			sources[k] = rows[:len(rows):len(rows)]
		}
	}
	env := make(map[string]uint64)
	var rec func(k int)
	rec = func(k int) {
		if k == len(positives) {
			// All positive atoms matched; check negated atoms.
			var negPremises []Fact
			for _, t := range r.Body {
				if !t.Neg {
					continue
				}
				pattern := groundArgs(t, env)
				if !e.absent(t, pattern) {
					return
				}
				negPremises = append(negPremises, Fact{Rel: t.Rel.Name, Args: pattern, Neg: true})
			}
			head := make([]uint64, r.Head.Rel.Arity())
			for i, v := range r.Head.Vars {
				if c, has := r.Head.consts[i]; has {
					head[i] = c
					continue
				}
				if v == Wildcard {
					panic(fmt.Sprintf("datalog: wildcard in head of %s without constant binding", r.Head.Rel.Name))
				}
				head[i] = env[v]
			}
			premises := make([]Fact, 0, len(r.Body))
			for _, i := range positives {
				premises = append(premises, Fact{Rel: r.Body[i].Rel.Name, Args: groundArgs(r.Body[i], env)})
			}
			premises = append(premises, negPremises...)
			emit(head, premises)
			return
		}
		t := r.Body[positives[k]]
		for _, row := range sources[k] {
			bound, ok := matchRow(t, row, env)
			if !ok {
				continue
			}
			rec(k + 1)
			for _, b := range bound {
				delete(env, b)
			}
		}
	}
	rec(0)
}

// merge adds a derived tuple, recording its first witness. It reports
// whether the tuple was new.
func (e *Explicit) merge(rel *Relation, vals []uint64, rule string, premises []Fact) bool {
	key := encodeArgs(vals)
	s := e.storeOf(rel)
	if !s.add(key, vals) {
		return false
	}
	e.witness[factKey{rel, key}] = &Witness{Rule: rule, Premises: premises}
	return true
}

// Apply evaluates the rule once against current contents and merges
// derived tuples into the head, recording witnesses for new tuples. It
// reports whether the head changed.
func (e *Explicit) Apply(r *Rule) bool {
	changed := false
	e.evalRule(r, -1, nil, func(vals []uint64, premises []Fact) {
		if e.merge(r.Head.Rel, vals, r.Name(), premises) {
			changed = true
		}
	})
	return changed
}

// Solve runs the rules to fixpoint with naive iteration, mirroring
// Program.Solve's cutoff contract: at most maxRounds rounds (0 = no
// limit); fixpoint is false exactly when the cap cut iteration off.
func (e *Explicit) Solve(rules []*Rule, maxRounds int) (int, bool) {
	rounds := 0
	for {
		rounds++
		changed := false
		for _, r := range rules {
			if e.Apply(r) {
				changed = true
			}
		}
		if !changed {
			e.Rounds += rounds
			return rounds, true
		}
		if maxRounds > 0 && rounds >= maxRounds {
			e.Rounds += rounds
			return rounds, false
		}
	}
}

// SolveSemiNaive runs the rules to fixpoint with semi-naive evaluation,
// mirroring Program.SolveSemiNaive: round 0 evaluates every rule in
// full (pre-seeded tuples of derived relations count as the first
// delta); later rounds re-evaluate each rule once per recursive
// positive atom against only that atom's new tuples, and a set with no
// recursive atom finishes after round 0. Negated relations must belong
// to an earlier stratum (enforced). The cutoff contract is the BDD
// solver's: at most maxRounds rounds, fixpoint false exactly when the
// cap bites.
func (e *Explicit) SolveSemiNaive(rules []*Rule, maxRounds int) (int, bool) {
	derivedBy, recursive := stratum(rules)
	delta := make(map[*Relation][][]uint64)
	for rel := range derivedBy {
		rows := e.storeOf(rel).rows
		delta[rel] = rows[:len(rows):len(rows)]
	}
	rounds := 1
	for _, r := range rules {
		e.evalRule(r, -1, nil, func(vals []uint64, premises []Fact) {
			if e.merge(r.Head.Rel, vals, r.Name(), premises) {
				delta[r.Head.Rel] = append(delta[r.Head.Rel], append([]uint64(nil), vals...))
			}
		})
	}
	for {
		anyDelta := false
		for rel, d := range delta {
			if len(d) > 0 && recursive[rel] {
				anyDelta = true
			}
		}
		if !anyDelta {
			e.Rounds += rounds
			return rounds, true
		}
		if maxRounds > 0 && rounds >= maxRounds {
			e.Rounds += rounds
			return rounds, false
		}
		rounds++
		next := make(map[*Relation][][]uint64)
		for rel := range derivedBy {
			next[rel] = nil
		}
		for _, r := range rules {
			for i, t := range r.Body {
				if t.Neg || !derivedBy[t.Rel] {
					continue
				}
				d := delta[t.Rel]
				if len(d) == 0 {
					continue
				}
				e.evalRule(r, i, d, func(vals []uint64, premises []Fact) {
					if e.merge(r.Head.Rel, vals, r.Name(), premises) {
						next[r.Head.Rel] = append(next[r.Head.Rel], append([]uint64(nil), vals...))
					}
				})
			}
		}
		delta = next
	}
}
