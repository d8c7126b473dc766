package datalog

import (
	"fmt"
	"sort"
)

// refDB is the reference evaluator the BDD engine's tests compare
// against: plain tuple sets and naive nested-loop evaluation in body
// order, with no planning, no deltas, and no BDDs.
type refDB map[*Relation]map[string][]uint64

// newRefDB copies the current tuples of rels out of their BDDs.
func newRefDB(rels ...*Relation) refDB {
	db := refDB{}
	for _, rel := range rels {
		for _, t := range rel.Tuples() {
			db.add(rel, t)
		}
	}
	return db
}

func (db refDB) add(rel *Relation, t []uint64) bool {
	key := fmt.Sprint(t)
	if db[rel] == nil {
		db[rel] = map[string][]uint64{}
	}
	if _, ok := db[rel][key]; ok {
		return false
	}
	db[rel][key] = append([]uint64(nil), t...)
	return true
}

func (db refDB) has(rel *Relation, t []uint64) bool {
	_, ok := db[rel][fmt.Sprint(t)]
	return ok
}

// tuples returns rel's tuples sorted lexicographically, the order
// Relation.Tuples uses.
func (db refDB) tuples(rel *Relation) [][]uint64 {
	var out [][]uint64
	for _, t := range db[rel] {
		out = append(out, t)
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

// matchRow binds atom t against tuple row under env, returning the
// extended environment or false. Wildcards match anything; Bind
// constants must equal the row's value.
func matchRow(t Term, row []uint64, env map[string]uint64) (map[string]uint64, bool) {
	next := make(map[string]uint64, len(env)+len(t.Vars))
	for k, v := range env {
		next[k] = v
	}
	for i, v := range t.Vars {
		if c, ok := t.consts[i]; ok && row[i] != c {
			return nil, false
		}
		if v == Wildcard {
			continue
		}
		if bound, ok := next[v]; ok && bound != row[i] {
			return nil, false
		}
		next[v] = row[i]
	}
	return next, true
}

// solve runs rules to fixpoint naively: every round joins every rule's
// positive atoms in body order against the full relations, drops the
// bindings a negated atom matches, and adds the heads; rounds repeat
// until one adds nothing. Negated relations must be complete already
// (stratified negation). It returns the number of rounds.
func (db refDB) solve(rules []*Rule) int {
	for round := 1; ; round++ {
		changed := false
		for _, r := range rules {
			// Positive atoms in body order, then the negated ones, whose
			// variables the positive atoms have bound by then.
			var body []Term
			for _, neg := range []bool{false, true} {
				for _, t := range r.Body {
					if t.Neg == neg {
						body = append(body, t)
					}
				}
			}
			var heads [][]uint64
			var join func(k int, env map[string]uint64)
			join = func(k int, env map[string]uint64) {
				if k == len(body) {
					head := make([]uint64, len(r.Head.Vars))
					for i, v := range r.Head.Vars {
						if c, ok := r.Head.consts[i]; ok {
							head[i] = c
						} else {
							head[i] = env[v]
						}
					}
					heads = append(heads, head)
					return
				}
				t := body[k]
				for _, row := range db[t.Rel] {
					next, ok := matchRow(t, row, env)
					switch {
					case ok && t.Neg:
						return
					case ok:
						join(k+1, next)
					}
				}
				if t.Neg {
					join(k+1, env)
				}
			}
			join(0, map[string]uint64{})
			for _, h := range heads {
				if db.add(r.Head.Rel, h) {
					changed = true
				}
			}
		}
		if !changed {
			return round
		}
	}
}
