package oracle

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
)

// The mutation layer perturbs the generator's output to explore
// programs the templates alone never produce: reordered statements
// move accesses across region lifetime boundaries, region-op swaps
// change which pool owns an allocation or when a pool dies, and
// call-depth inflation pushes stage calls through long trampoline
// chains (stressing context numbering and the interpreter's call
// budget). Every mutation is applied speculatively and validated by
// the front end — a candidate that fails to parse or type-check is
// reverted, so Check always sees a well-formed program.

// applyMutations applies up to n validated mutations to the case's
// executable source (the shared library, when present, stays
// pristine: it models a fixed third-party dependency).
func (c *Case) applyMutations(rng *rand.Rand, n int) {
	path := c.Exe.Name + ".c"
	for i := 0; i < n; i++ {
		src := c.Sources[path]
		mutated, desc := mutateOnce(src, rng)
		if desc == "" || mutated == src {
			continue
		}
		trial := make(map[string]string, len(c.Sources))
		for k, v := range c.Sources {
			trial[k] = v
		}
		trial[path] = mutated
		if _, _, err := parseAll(trial); err != nil {
			continue // invalid under the front end: revert
		}
		c.Sources = trial
		c.Mutations = append(c.Mutations, desc)
	}
}

// mutateOnce picks one mutation kind and applies it, returning the
// new source and a description ("" when no candidate site exists).
func mutateOnce(src string, rng *rand.Rand) (string, string) {
	kinds := []func(string, *rand.Rand) (string, string){
		mutateStmtSwap,
		mutateRegionOpSwap,
		mutateCallDepth,
	}
	// Try kinds in a random rotation until one finds a site.
	off := rng.Intn(len(kinds))
	for i := range kinds {
		out, desc := kinds[(off+i)%len(kinds)](src, rng)
		if desc != "" {
			return out, desc
		}
	}
	return src, ""
}

// actionStmt reports whether a line is a plain statement safe to
// reorder: an assignment or call ending in ";", not a declaration or
// control-flow construct.
func actionStmt(line string) bool {
	t := strings.TrimSpace(line)
	if !strings.HasSuffix(t, ";") {
		return false
	}
	if !strings.Contains(t, "=") && !strings.Contains(t, "(") {
		return false
	}
	for _, kw := range []string{"return", "for ", "for(", "if ", "if(", "while", "typedef", "extern", "struct"} {
		if strings.HasPrefix(t, kw) {
			return false
		}
	}
	// Declarations with initializers stay put so later uses still
	// follow them textually.
	if declRe.MatchString(t) && !strings.Contains(t, "->") && !strings.HasPrefix(t, "pattern") {
		return false
	}
	return true
}

var declRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z_0-9]*(\s+\*?|\s*\*\s*)[A-Za-z_]`)

// mutateStmtSwap swaps two adjacent action statements at the same
// indentation.
func mutateStmtSwap(src string, rng *rand.Rand) (string, string) {
	lines := strings.Split(src, "\n")
	var cands []int
	for i := 0; i+1 < len(lines); i++ {
		if actionStmt(lines[i]) && actionStmt(lines[i+1]) &&
			indentOf(lines[i]) == indentOf(lines[i+1]) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return src, ""
	}
	i := cands[rng.Intn(len(cands))]
	lines[i], lines[i+1] = lines[i+1], lines[i]
	return strings.Join(lines, "\n"),
		fmt.Sprintf("stmt-reorder: swapped lines %d and %d", i+1, i+2)
}

func indentOf(line string) int {
	return len(line) - len(strings.TrimLeft(line, " \t"))
}

// regionOpPairs are the operation substitutions region-op swap
// chooses from: destroy <-> clear changes when memory dies, and
// swapping the pool argument of an allocation changes which region
// owns the object.
var regionOpPairs = [][2]string{
	{"apr_pool_destroy(", "apr_pool_clear("},
	{"apr_palloc(pool", "apr_palloc(sub"},
	{"apr_pcalloc(pool", "apr_pcalloc(sub"},
	{"apr_pstrdup(pool", "apr_pstrdup(sub"},
	{"ralloc(pool)", "ralloc(sub)"},
	{"rstrdup(pool)", "rstrdup(sub)"},
	{"lib_alloc_node(pool", "lib_alloc_node(sub"},
}

// mutateRegionOpSwap replaces one occurrence of a region operation
// with its counterpart (in either direction). Swaps that reference an
// identifier not in scope are rejected by the caller's front-end
// validation.
func mutateRegionOpSwap(src string, rng *rand.Rand) (string, string) {
	type site struct {
		pos      int
		from, to string
	}
	var sites []site
	for _, pair := range regionOpPairs {
		for _, dir := range [][2]string{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			idx := 0
			for {
				i := strings.Index(src[idx:], dir[0])
				if i < 0 {
					break
				}
				sites = append(sites, site{pos: idx + i, from: dir[0], to: dir[1]})
				idx += i + len(dir[0])
			}
		}
	}
	if len(sites) == 0 {
		return src, ""
	}
	s := sites[rng.Intn(len(sites))]
	out := src[:s.pos] + s.to + src[s.pos+len(s.from):]
	return out, fmt.Sprintf("region-op-swap: %q -> %q at byte %d", s.from, s.to, s.pos)
}

var stageCallRe = regexp.MustCompile(`(\s*)(stage_0_\d+)\(root\);`)
var mainRe = regexp.MustCompile(`(?m)^int main\(`)
var poolTypeRe = regexp.MustCompile(`(apr_pool_t|region_t) \*root;`)

// mutateCallDepth reroutes one of main's stage calls through a chain
// of trampoline functions, inflating every call path's length (and so
// the context count under call-path numbering).
func mutateCallDepth(src string, rng *rand.Rand) (string, string) {
	if strings.Contains(src, "inflate_0") {
		return src, "" // inflate at most once per case
	}
	mainLoc := mainRe.FindStringIndex(src)
	ptLoc := poolTypeRe.FindStringSubmatch(src)
	if mainLoc == nil || ptLoc == nil {
		return src, ""
	}
	poolType := ptLoc[1]
	// Only stage calls inside main (after its opening) are reroutable.
	m := stageCallRe.FindStringSubmatchIndex(src[mainLoc[0]:])
	if m == nil {
		return src, ""
	}
	stage := src[mainLoc[0]+m[4] : mainLoc[0]+m[5]]
	depth := 4 + rng.Intn(12)
	var sb strings.Builder
	fmt.Fprintf(&sb, "void inflate_0(%s *pool) { %s(pool); }\n", poolType, stage)
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&sb, "void inflate_%d(%s *pool) { inflate_%d(pool); }\n", i, poolType, i-1)
	}
	out := src[:mainLoc[0]] + sb.String() + src[mainLoc[0]:]
	// Reroute the first matching stage call in main through the chain.
	mainPart := out[mainLoc[0]+sb.Len():]
	rerouted := stageCallRe.ReplaceAllString(mainPart,
		fmt.Sprintf("${1}inflate_%d(root);", depth))
	// ReplaceAll reroutes every top-stage call; that is fine — the
	// chain preserves the argument, only the path length changes.
	out = out[:mainLoc[0]+sb.Len()] + rerouted
	return out, fmt.Sprintf("call-depth: rerouted stage calls through %d trampolines", depth+1)
}
