package core

import (
	"context"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/ir"
	"repro/internal/pointer"
)

// Backend selects how the inconsistency computation (Section 5.3.2) is
// solved.
type Backend int

// Backends.
const (
	// ExplicitBackend uses plain hash-set relations.
	ExplicitBackend Backend = iota
	// BDDBackend stores relations in BDDs and solves the paper's
	// Datalog rules with the bddbddb-substitute engine.
	BDDBackend
)

// Options configures an analysis run.
type Options struct {
	// Entry is the program entry function (default "main").
	Entry string
	// API is the region interface; default MergeAPIs(APRPools(), RCRegions()).
	API *RegionAPI
	// ContextCap bounds per-function context counts (default 4096;
	// 1 yields a context-insensitive analysis — the ablation knob).
	ContextCap uint64
	// HeapCloning keys abstract objects by (context, site); default
	// true (disabling is the Section 7 ablation).
	HeapCloning *bool
	// DefUseRefinement enables the Section 4.3 / Figure 5(b)
	// refinement the paper defers to future work: subregion and
	// ownership are additionally tracked through the variables they
	// came from (p̂ : R×V, f̂ : V×O), and an inconsistency witness is
	// suppressed when the subregion's parent and the pointee's owner
	// were read from the same variable instance — they must denote the
	// same region at runtime. Like IPSSA, this is unsound (the
	// variable could be reassigned between the two uses) but
	// effective against intra-region false positives.
	DefUseRefinement bool
	// Entries analyzes an open program (a library, the paper's
	// Section 8 extension): every listed defined function is an
	// analysis root. When set, Entry is ignored and no "main" is
	// required; an empty slice with OpenProgram semantics is filled
	// with every defined function.
	Entries []string
	// KCFA switches context numbering from full call-path cloning
	// (Whaley–Lam, the paper's choice) to k-CFA call strings of the
	// given depth — the "smaller number of contexts" alternative the
	// paper's Section 6.3 says it is investigating. 0 keeps call-path
	// numbering.
	KCFA int
	// ContextPolicy names the context-numbering policy: PolicyClone
	// (full call-path cloning, the default), PolicyKCFA (requires
	// KCFA > 0 for the depth), or PolicyOrigin (allocation-site
	// origin sensitivity: contexts are keyed by the nearest enclosing
	// call into a region-creating or region-allocating function, per
	// origin-go-tools). Normalize derives the default from KCFA;
	// Validate rejects inconsistent combinations. Origin changes
	// results and is fingerprinted.
	ContextPolicy string
	// ImplicitSpecs overrides the implicit-call registry (nil =
	// callgraph.DefaultImplicitSpecs).
	ImplicitSpecs []callgraph.ImplicitSpec
	// ExtraAllocFns adds generic allocators (malloc-style) that create
	// non-region objects.
	ExtraAllocFns []string
	// Solver groups how the analysis is solved: fixpoint budget,
	// points-to cap, and backend. See SolverOptions.
	Solver SolverOptions
}

// Context policies (Options.ContextPolicy).
const (
	PolicyClone  = "clone"
	PolicyKCFA   = "kcfa"
	PolicyOrigin = "origin"
)

// prepare normalizes and validates options at an Analyze* boundary.
func (o Options) prepare() (Options, error) {
	o = o.Normalize()
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// Bool is a convenience for Options.HeapCloning.
func Bool(b bool) *bool { return &b }

// Region is one region instance: either the root or a (context,
// creation site) clone.
type Region struct {
	Index  int
	Obj    int // pointer-analysis object ID; -1 for root
	Ctx    uint64
	Parent int // region index after the Section 4.3 join collapse
	// Cands are the candidate parents observed before collapsing.
	Cands []int
	Depth int
}

// RootRegion is the index of the root region Θ.
const RootRegion = 0

// Analysis holds the intermediate and final state of one run — the
// shared State threaded through the pipeline phases (phases.go).
type Analysis struct {
	Opts Options
	// Sources holds the analyzed path->content pairs.
	Sources   map[string]string
	Files     []*cminor.File
	Info      *cminor.Info
	Prog      *ir.Program
	Graph     *callgraph.Graph
	Numbering *contexts.Numbering
	Ptr       *pointer.Result

	// entries are the resolved analysis roots (lower phase).
	entries []string

	// Front counts per-file front-end work: what a run reused from
	// its base and what it recomputed (incremental.go).
	Front FrontEndStats

	// Per-run incremental state, cleared when AnalyzeIncremental
	// returns so that a finished analysis keeps its base alive through
	// no pointer. base is the analysis the run reuses per-file work
	// from; baseIndex maps each of its file paths to the file's index
	// in base.Files and base.Prog's fragments; changed marks the paths
	// parsed afresh; incrementalCheck records that check reused base's
	// declarations.
	base             *Analysis
	baseIndex        map[string]int
	changed          map[string]bool
	incrementalCheck bool

	// Regions indexed by region index; Regions[0] is the root.
	Regions []Region
	// regionOf maps pointer object IDs to region indices.
	regionOf map[int]int

	// Owner maps object IDs to the region indices that may own them
	// (φ; φ⁼ additionally maps each region to itself).
	Owner map[int][]int
	// parentVars (p̂) and ownerVars (f̂) track which variable instance
	// a region's parent / an object's owner region was read from —
	// the Figure 5(b) def-use refinement relations.
	parentVars map[int]map[varInst]bool
	ownerVars  map[int]map[varInst]bool
	// ownEdges counts ownership tuples (Figure 11's "own." column).
	ownEdges int
	// subEdges counts raw candidate subregion tuples ("sub." column).
	subEdges int

	// accessEdges counts σ, the heap restricted to region-allocated
	// sources (eachAccess). objectPairs counts the inconsistent
	// object pairs, and ipairs holds them condensed by instruction
	// pair (foldPair).
	accessEdges int
	objectPairs int
	ipairs      map[ipairKey]*IPair

	Report *Report
}

// AnalyzeSource parses, checks, lowers, and analyzes CMinor sources
// given as path->content pairs. Front-end diagnostics abort the run.
func AnalyzeSource(opts Options, sources map[string]string) (*Analysis, error) {
	return AnalyzeSourceContext(context.Background(), opts, sources)
}

// AnalyzeSourceContext is AnalyzeSource under a context: the pipeline
// checks ctx between phases and aborts with ctx.Err() when it is
// cancelled or past its deadline.
func AnalyzeSourceContext(ctx context.Context, opts Options, sources map[string]string) (*Analysis, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	a := newAnalysis(opts)
	a.Sources = sources
	return runPhases(ctx, a, phases)
}

// pointerConfig derives the pointer-analysis extern models from the
// region API.
func (a *Analysis) pointerConfig() pointer.Config {
	cfg := pointer.Config{
		AllocFns:     map[string]bool{"malloc": true, "calloc": true, "realloc": true, "strdup": true},
		OutAllocFns:  map[string]int{},
		ReturnArgFns: map[string]int{"memcpy": 0, "memset": 0, "strcpy": 0, "strcat": 0, "memmove": 0},
		HeapCloning:  *a.Opts.HeapCloning,
		EntryParams:  len(a.Opts.Entries) > 0,
		PtsLimit:     a.Opts.Solver.PtsLimit,
	}
	for _, fn := range a.Opts.ExtraAllocFns {
		cfg.AllocFns[fn] = true
	}
	for name, spec := range a.Opts.API.Create {
		if spec.OutArg >= 0 {
			cfg.OutAllocFns[name] = spec.OutArg
		} else {
			cfg.AllocFns[name] = true
		}
	}
	for name := range a.Opts.API.Alloc {
		cfg.AllocFns[name] = true
	}
	return cfg
}

// originFns marks the defined functions whose bodies directly call a
// region-creating or region-allocating extern of the configured API —
// the origin spawn points of the PolicyOrigin context numbering.
func (a *Analysis) originFns() map[string]bool {
	isOrigin := func(name string) bool {
		if _, ok := a.Opts.API.Create[name]; ok {
			return true
		}
		_, ok := a.Opts.API.Alloc[name]
		return ok
	}
	out := make(map[string]bool)
	for fnName, f := range a.Prog.Funcs {
		c := a.Prog.Cursor(f.First, f.End)
		for c.Next() {
			in := c.Inst
			if in.Op != ir.Call {
				continue
			}
			for _, name := range a.externNamesOf(&in) {
				if isOrigin(name) {
					out[fnName] = true
				}
			}
		}
	}
	return out
}

// externCallSites enumerates every reachable (ctx, CALL instruction,
// extern name) triple, the drive shaft of effect extraction.
func (a *Analysis) externCallSites(visit func(fn string, ctx uint64, in *ir.Inst, extern string)) {
	for _, fnName := range a.Graph.ReachableFuncs() {
		f := a.Prog.Funcs[fnName]
		count := a.Numbering.Count[fnName]
		c := a.Prog.Cursor(f.First, f.End)
		for c.Next() {
			in := c.Inst
			if in.Op != ir.Call {
				continue
			}
			externs := a.externNamesOf(&in)
			if len(externs) == 0 {
				continue
			}
			for ctx := uint64(0); ctx < count; ctx++ {
				for _, name := range externs {
					visit(fnName, ctx, &in, name)
				}
			}
		}
	}
}

func (a *Analysis) externNamesOf(in *ir.Inst) []string {
	switch in.Callee().Kind {
	case ir.FuncOpd:
		if _, defined := a.Prog.Funcs[in.Callee().Fn]; !defined {
			return []string{in.Callee().Fn}
		}
	case ir.VarOpd:
		var out []string
		for fn := range a.Graph.VF[in.Callee().Var] {
			if _, defined := a.Prog.Funcs[fn]; !defined {
				out = append(out, fn)
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

// extractRegions assigns region indices to region objects and collects
// candidate parent edges from region-creation calls.
func (a *Analysis) extractRegions() {
	a.Regions = []Region{{Index: RootRegion, Obj: -1, Parent: RootRegion}}
	// First pass: register every region object. In open-program mode
	// every entry-parameter object is additionally a symbolic
	// "parameter region" of unknown parent: the library is verified
	// under the weakest assumption about what the caller passed.
	for id, obj := range a.Ptr.Objects {
		if obj.Kind == pointer.ParamObj {
			idx := len(a.Regions)
			a.Regions = append(a.Regions, Region{Index: idx, Obj: id, Parent: RootRegion})
			a.regionOf[id] = idx
			continue
		}
		if obj.Kind != pointer.AllocObj {
			continue
		}
		if _, isCreate := a.Opts.API.Create[obj.Fn]; !isCreate {
			continue
		}
		idx := len(a.Regions)
		a.Regions = append(a.Regions, Region{
			Index: idx, Obj: id, Ctx: obj.Ctx, Parent: RootRegion,
		})
		a.regionOf[id] = idx
	}
	// Second pass: candidate parents from creation calls.
	cands := make(map[int]map[int]bool)
	a.externCallSites(func(fn string, ctx uint64, in *ir.Inst, extern string) {
		spec, ok := a.Opts.API.Create[extern]
		if !ok {
			return
		}
		objID := a.Ptr.AllocObjAt(ctx, in.ID)
		if objID < 0 {
			return
		}
		child, ok := a.regionOf[objID]
		if !ok {
			return
		}
		parents := a.regionArgTargets(in, ctx, spec.ParentArg)
		set := cands[child]
		if set == nil {
			set = make(map[int]bool)
			cands[child] = set
		}
		for _, p := range parents {
			if p != child { // self-parent candidates would be cyclic
				set[p] = true
				a.subEdges++
			}
		}
		// p̂: remember the variable the parent was read from.
		if spec.ParentArg >= 0 && spec.ParentArg < in.NumArgs() {
			if arg := in.Arg(spec.ParentArg); arg.Kind == ir.VarOpd {
				addVarInst(a.parentVars, child, varInst{arg.Var, ctx})
			}
		}
	})
	for child, set := range cands {
		list := make([]int, 0, len(set))
		for p := range set {
			list = append(list, p)
		}
		sort.Ints(list)
		a.Regions[child].Cands = list
	}
}

// regionArgTargets resolves the region argument of a call to region
// indices. A NULL argument, a missing argument, or an argument that
// points at no region all mean the root region (Section 4.1: "if the
// parameter given in rnew or ralloc is null, it means the root
// region").
func (a *Analysis) regionArgTargets(in *ir.Inst, ctx uint64, argIdx int) []int {
	if argIdx < 0 || argIdx >= in.NumArgs() {
		return []int{RootRegion}
	}
	arg := in.Arg(argIdx)
	if arg.Kind == ir.NullOpd || arg.Kind == ir.ConstOpd {
		return []int{RootRegion}
	}
	var out []int
	seen := map[int]bool{}
	for _, l := range a.Ptr.OperandPointsTo(arg, ctx) {
		if r, ok := a.regionOf[l.Obj]; ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return []int{RootRegion}
	}
	sort.Ints(out)
	return out
}

// varInst is one context-sensitive variable instance — the V of the
// Figure 5(b) refinement relations.
type varInst struct {
	v   int32
	ctx uint64
}

func addVarInst(m map[int]map[varInst]bool, key int, vi varInst) {
	set := m[key]
	if set == nil {
		set = make(map[varInst]bool)
		m[key] = set
	}
	set[vi] = true
}

// sameVarWitness reports whether the inconsistency witness (x owns the
// source object, the destination object's owner is y) is refuted by
// the def-use refinement: the source's region x was created as a
// subregion of — or the source object was allocated from — the very
// variable instance the destination's owner was read from, so the two
// sides must denote the same region (or a descendant) at runtime.
func (a *Analysis) sameVarWitness(x, srcObj, dstObj int) bool {
	dst := a.ownerVars[dstObj]
	if len(dst) == 0 {
		return false
	}
	for vi := range a.parentVars[x] {
		if dst[vi] {
			return true
		}
	}
	for vi := range a.ownerVars[srcObj] {
		if dst[vi] {
			return true
		}
	}
	return false
}

// allocRegionTargets resolves the region argument of an allocation
// call, returning nil (no ownership) when the argument is NULL or
// points at no region.
func (a *Analysis) allocRegionTargets(in *ir.Inst, ctx uint64, argIdx int) []int {
	if argIdx < 0 || argIdx >= in.NumArgs() {
		return nil
	}
	arg := in.Arg(argIdx)
	if arg.Kind != ir.VarOpd && arg.Kind != ir.StringOpd {
		return nil
	}
	var out []int
	seen := map[int]bool{}
	for _, l := range a.Ptr.OperandPointsTo(arg, ctx) {
		if r, ok := a.regionOf[l.Obj]; ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// collapseParents implements the Section 4.3 under-approximation: a
// region with several candidate parents is re-parented to their join
// in the region semilattice (the root is the top). The join is the
// least common ancestor over the forest formed by unique-parent
// regions; regions whose candidates have no common ancestor chain join
// at the root, exactly as in Example 4.4.
func (a *Analysis) collapseParents() {
	// Start from unique-parent edges.
	for i := range a.Regions {
		r := &a.Regions[i]
		if i == RootRegion {
			continue
		}
		switch len(r.Cands) {
		case 0:
			r.Parent = RootRegion
		case 1:
			r.Parent = r.Cands[0]
		default:
			r.Parent = -1 // to be joined below
		}
	}
	// Guard against parent cycles (possible after context merging):
	// walk each unique chain; any cycle is broken at the root.
	for i := range a.Regions {
		if a.Regions[i].Parent < 0 {
			continue
		}
		seen := map[int]bool{i: true}
		for j := a.Regions[i].Parent; j != RootRegion; j = a.Regions[j].Parent {
			if j < 0 || seen[j] {
				a.Regions[i].Parent = RootRegion
				break
			}
			seen[j] = true
		}
	}
	// Join multi-parent regions.
	for i := range a.Regions {
		r := &a.Regions[i]
		if r.Parent >= 0 {
			continue
		}
		r.Parent = a.join(r.Cands, i)
	}
	// Depths for reporting and LCA sanity.
	for i := range a.Regions {
		a.Regions[i].Depth = a.depth(i)
	}
}

// ancestors returns the chain idx, parent(idx), ..., root. Nodes with
// still-undetermined parents (-1) fall to the root immediately.
func (a *Analysis) ancestors(idx int) []int {
	var chain []int
	seen := map[int]bool{}
	for {
		chain = append(chain, idx)
		if idx == RootRegion || seen[idx] {
			return chain
		}
		seen[idx] = true
		p := a.Regions[idx].Parent
		if p < 0 {
			chain = append(chain, RootRegion)
			return chain
		}
		idx = p
	}
}

// join computes the least common ancestor of the candidate set,
// excluding the joining region itself from the result.
func (a *Analysis) join(cands []int, self int) int {
	if len(cands) == 0 {
		return RootRegion
	}
	common := map[int]bool{}
	for i, c := range cands {
		chain := a.ancestors(c)
		set := map[int]bool{}
		for _, x := range chain {
			set[x] = true
		}
		if i == 0 {
			common = set
			continue
		}
		for x := range common {
			if !set[x] {
				delete(common, x)
			}
		}
	}
	// Deepest common ancestor: walk the first candidate's chain from
	// the bottom; the first member of common that is not self wins.
	for _, x := range a.ancestors(cands[0]) {
		if common[x] && x != self {
			return x
		}
	}
	return RootRegion
}

func (a *Analysis) depth(idx int) int {
	d := 0
	seen := map[int]bool{}
	for idx != RootRegion && !seen[idx] {
		seen[idx] = true
		idx = a.Regions[idx].Parent
		d++
	}
	return d
}

// Leq reports the subregion partial order x ⊑ y (reflexive transitive
// closure of the collapsed parent edges; everything ⊑ root).
func (a *Analysis) Leq(x, y int) bool {
	if y == RootRegion {
		return true
	}
	seen := map[int]bool{}
	for {
		if x == y {
			return true
		}
		if x == RootRegion || seen[x] {
			return false
		}
		seen[x] = true
		x = a.Regions[x].Parent
	}
}

// extractOwnership collects the ownership relation from allocation
// calls: region argument targets own the allocated object.
func (a *Analysis) extractOwnership() {
	add := func(obj, region int) {
		for _, r := range a.Owner[obj] {
			if r == region {
				return
			}
		}
		a.Owner[obj] = append(a.Owner[obj], region)
		a.ownEdges++
	}
	a.externCallSites(func(fn string, ctx uint64, in *ir.Inst, extern string) {
		spec, ok := a.Opts.API.Alloc[extern]
		if !ok {
			return
		}
		objID := a.Ptr.AllocObjAt(ctx, in.ID)
		if objID < 0 {
			return
		}
		// Unlike region creation (where a NULL parent means the root,
		// Section 4.1), an allocation whose region argument resolves
		// to no region — a literal NULL or a guarded never-NULL path
		// like apr_hash_first's "if (pool)" — records no ownership:
		// such objects are not σ sources. This matches the paper's
		// recommended Figure 9 fix analyzing clean.
		for _, r := range a.allocRegionTargets(in, ctx, spec.RegionArg) {
			add(objID, r)
		}
		// f̂: remember the variable the owner region was read from.
		if spec.RegionArg >= 0 && spec.RegionArg < in.NumArgs() {
			if arg := in.Arg(spec.RegionArg); arg.Kind == ir.VarOpd {
				addVarInst(a.ownerVars, objID, varInst{arg.Var, ctx})
			}
		}
	})
	for i := range a.Owner {
		sort.Ints(a.Owner[i])
	}
}

// ownersOf returns the owner regions of an object for pair checking:
// region objects belong to their own region (the φ⁼ reflexive
// extension); API-allocated objects to their recorded owners; every
// other object (malloc'ed memory, variable storage, string literals)
// to the immortal root region.
func (a *Analysis) ownersOf(obj int) []int {
	if r, ok := a.regionOf[obj]; ok {
		return []int{r}
	}
	if owners, ok := a.Owner[obj]; ok {
		return owners
	}
	return []int{RootRegion}
}

// isRegionAllocated reports whether obj was allocated by the region
// API (the paper's normal objects H — the only legal sources of σ).
func (a *Analysis) isRegionAllocated(obj int) bool {
	_, owned := a.Owner[obj]
	return owned
}

// RegionCount returns the number of created region instances (the
// Figure 11 "R" column; the root is not counted).
func (a *Analysis) RegionCount() int { return len(a.Regions) - 1 }

// ObjectCount returns the number of region-allocated normal objects
// ("H" column).
func (a *Analysis) ObjectCount() int { return len(a.Owner) }

// RPairCount counts ordered region pairs with no subregion partial
// order ("R-pair" column) without materializing them: x ⊑ y holds for
// x ≠ y exactly when y is a proper ancestor of x, so the related-pair
// count is the sum of ancestor-chain lengths (root excluded).
func (a *Analysis) RPairCount() int64 {
	n := int64(a.RegionCount())
	var related int64
	for x := 1; x < len(a.Regions); x++ {
		seen := map[int]bool{x: true}
		for y := a.Regions[x].Parent; y != RootRegion && !seen[y]; y = a.Regions[y].Parent {
			seen[y] = true
			related++
		}
	}
	return n*(n-1) - related
}
