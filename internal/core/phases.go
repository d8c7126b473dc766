package core

import (
	"context"
	"runtime"
	"sort"
	"time"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/trace"
)

// Phase names, in execution order. Each maps onto a stage of the
// paper's Section 5 pipeline; DESIGN.md's "pipeline phases" section
// has the full correspondence.
const (
	PhaseParse     = "parse"     // CMinor front end (Section 5.1)
	PhaseCheck     = "check"     // type checking (Section 5.1)
	PhaseLower     = "lower"     // IR lowering + entry resolution (Section 5.1)
	PhaseCallGraph = "callgraph" // call graph construction (Section 5.1)
	PhaseContexts  = "contexts"  // context numbering (Section 5.2)
	PhasePointer   = "pointer"   // pointer analysis with heap cloning (Section 5.3.1)
	PhaseRegions   = "regions"   // region extraction + parent collapse (Section 4.3)
	PhaseOwnership = "ownership" // ownership relation extraction (Section 5.3.1)
	PhaseAccess    = "access"    // access relation restriction (Section 5.3.1)
	PhasePairs     = "pairs"     // inconsistency computation (Section 5.3.2)
	PhasePost      = "post"      // condensing + ranking (Section 5.4)
)

// PhaseNames lists every analysis phase in execution order, including
// the front-end phases run only by AnalyzeSource.
func PhaseNames() []string {
	names := make([]string, len(phases))
	for i, ph := range phases {
		names[i] = ph.name
	}
	return names
}

// newAnalysis allocates the shared pipeline state. opts must already
// be filled.
func newAnalysis(opts Options) *Analysis {
	return &Analysis{
		Opts:       opts,
		regionOf:   make(map[int]int),
		Owner:      make(map[int][]int),
		parentVars: make(map[int]map[varInst]bool),
		ownerVars:  make(map[int]map[varInst]bool),
	}
}

// phase is one named stage of the analysis over the shared state.
// ctx is the run's; long phases poll it for cancellation.
type phase struct {
	name string
	run  func(ctx context.Context, a *Analysis) error
}

// phases is the analysis in execution order. The first frontEnd
// entries parse and check a.Sources into a.Files and a.Info; runs
// that start from checked files (AnalyzeContext) skip them.
// Snapshot-backed runs (a.snapshotting) digest every file; incremental
// runs (a.prev set) additionally reuse the base snapshot's ASTs for
// digest-unchanged files and, when the edit preserves all declaration
// signatures, re-check only the changed files against the base's
// declaration environment.
var phases = []phase{
	{PhaseParse, func(_ context.Context, a *Analysis) error {
		paths := make([]string, 0, len(a.Sources))
		for p := range a.Sources {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if a.snapshotting {
			a.digests = make(map[string]string, len(paths))
			a.changed = make(map[string]bool, len(paths))
		}
		// One token budget covers every file of the analysis. A
		// reused file that would overspend it is parsed again, so
		// the error names the token over budget.
		var budget cminor.TokenBudget
		for _, p := range paths {
			if a.snapshotting {
				d := FileDigest(a.Sources[p])
				a.digests[p] = d
				if a.prev != nil && a.prev.digests[p] == d && budget.Reuse(a.prev.files[p]) {
					a.Files = append(a.Files, a.prev.files[p])
					a.Front.ParseReused++
					continue
				}
				a.changed[p] = true
			}
			f, errs := budget.Parse(p, a.Sources[p])
			if len(errs) != 0 {
				return Errf(ErrParse, errs[0].Pos.String(),
					"parse %s: %v (and %d more)", p, errs[0], len(errs)-1)
			}
			a.Files = append(a.Files, f)
			a.Front.ParseParsed++
		}
		return nil
	}},
	{PhaseCheck, func(_ context.Context, a *Analysis) error {
		if a.tryIncrementalCheck() {
			a.incrementalCheck = true
			a.Info = cminor.CheckIncremental(a.prev.info, a.Files, a.changed)
			for _, f := range a.Files {
				if a.changed[f.Path] {
					a.Front.CheckChecked++
				} else {
					a.Front.CheckReused++
				}
			}
		} else {
			a.Info = cminor.Check(a.Files...)
			a.Front.CheckChecked = len(a.Files)
		}
		if len(a.Info.Errors) != 0 {
			return Errf(ErrParse, a.Info.Errors[0].Pos.String(),
				"check: %v (and %d more)", a.Info.Errors[0], len(a.Info.Errors)-1)
		}
		return nil
	}},
	{PhaseLower, func(_ context.Context, a *Analysis) error {
		if a.snapshotting {
			// Per-file fragments, reused from the base when the file
			// is unchanged and the declaration environment held
			// (fragments bake in type layouts and symbol kinds, so a
			// full fallback check invalidates all of them). Link
			// assigns all program-wide IDs in file order.
			frags := make([]*ir.Fragment, len(a.Files))
			a.fragments = make(map[string]*ir.Fragment, len(a.Files))
			for i, f := range a.Files {
				if a.incrementalCheck && !a.changed[f.Path] {
					frags[i] = a.prev.frags[f.Path]
					a.Front.LowerReused++
				} else {
					frags[i] = ir.LowerFile(a.Info, f)
					a.Front.LowerLowered++
				}
				a.fragments[f.Path] = frags[i]
			}
			a.Prog = ir.Link(a.Info, frags)
		} else {
			a.Prog = ir.Lower(a.Info, a.Files...)
		}
		entries := a.Opts.Entries
		if len(entries) == 0 {
			if _, ok := a.Prog.Funcs[a.Opts.Entry]; !ok {
				return Errf(ErrResolve, "", "entry function %q not defined", a.Opts.Entry)
			}
			entries = []string{a.Opts.Entry}
		} else {
			for _, e := range entries {
				if _, ok := a.Prog.Funcs[e]; !ok {
					return Errf(ErrResolve, "", "entry function %q not defined", e)
				}
			}
		}
		a.entries = entries
		return nil
	}},
	{PhaseCallGraph, func(_ context.Context, a *Analysis) error {
		if a.prev != nil {
			// Incremental rebuild: relinking shifts instruction IDs,
			// so edges are rescanned rather than patched, but the
			// direct scan skips the vF fixpoint whenever no function
			// values flow through variables or memory. BuildDirect
			// is exact — it refuses rather than approximates — so
			// the graph matches BuildEntries' bit for bit.
			if g, ok := callgraph.BuildDirect(a.Prog, a.entries, a.Opts.ImplicitSpecs); ok {
				a.Graph = g
				a.Front.CallGraphDirect = true
				return nil
			}
		}
		a.Graph = callgraph.BuildEntries(a.Prog, a.entries, a.Opts.ImplicitSpecs)
		return nil
	}},
	{PhaseContexts, func(_ context.Context, a *Analysis) error {
		switch {
		case a.Opts.ContextPolicy == PolicyOrigin:
			a.Numbering = contexts.NewOrigin(a.Graph, a.Opts.ContextCap, a.originFns())
		case a.Opts.KCFA > 0:
			a.Numbering = contexts.NewKCFA(a.Graph, a.Opts.KCFA, a.Opts.ContextCap)
		default:
			a.Numbering = contexts.Number(a.Graph, a.Opts.ContextCap)
		}
		return nil
	}},
	{PhasePointer, func(ctx context.Context, a *Analysis) error {
		a.Ptr = pointer.AnalyzeContext(ctx, a.Numbering, a.pointerConfig())
		return nil
	}},
	{PhaseRegions, func(_ context.Context, a *Analysis) error {
		a.extractRegions()
		a.collapseParents()
		return nil
	}},
	{PhaseOwnership, func(_ context.Context, a *Analysis) error {
		a.extractOwnership()
		return nil
	}},
	{PhaseAccess, func(_ context.Context, a *Analysis) error {
		a.extractAccess()
		return nil
	}},
	{PhasePairs, func(ctx context.Context, a *Analysis) error {
		a.pairs = a.computeObjectPairs(ctx)
		return nil
	}},
	{PhasePost, func(_ context.Context, a *Analysis) error {
		a.Report = a.postProcess(a.pairs)
		return nil
	}},
}

// frontEnd counts the leading entries of phases that run only from
// sources: parse and check.
const frontEnd = 2

// phaseDone, when set, is called after every phase that ran, before
// the run checks ctx again. Tests use it to act between phases.
var phaseDone func(name string)

// runPhases runs ps over a in order and writes their costs into the
// report's stats. Between phases it checks ctx: a cancelled or expired
// context stops the run before the next phase. A phase error stops it
// likewise. Either way runPhases returns a nil analysis and an error
// of kind ErrInternal (phase errors are already typed and keep their
// kind) that unwraps to the cause.
//
// Every phase is timed, its allocation measured as the delta of
// runtime.MemStats.TotalAlloc, and credited with the RelationSizes
// entries that differ after it from before it. When ctx carries a
// trace.Tracer the run is a "pipeline" span and every phase a
// "phase:<name>" child span carrying the same numbers.
func runPhases(ctx context.Context, a *Analysis, ps []phase) (*Analysis, error) {
	start := time.Now()
	ctx, runSpan := trace.StartSpan(ctx, "pipeline")
	stats := make([]PhaseStat, 0, len(ps))
	prev := a.RelationSizes()
	var err error
	for _, ph := range ps {
		if err = ctx.Err(); err != nil {
			break
		}
		pctx, span := trace.StartSpan(ctx, "phase:"+ph.name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err = ph.run(pctx, a)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		cur := a.RelationSizes()
		st := PhaseStat{
			Name:       ph.name,
			Time:       wall,
			AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
			Outputs:    changedSizes(prev, cur),
		}
		prev = cur
		if span != nil {
			// The span's duration additionally covers the MemStats
			// reads and the sizes snapshot; wall_ns is the phase body
			// alone.
			span.End(phaseAttrs(st)...)
		}
		stats = append(stats, st)
		if phaseDone != nil {
			phaseDone(ph.name)
		}
		if err != nil {
			break
		}
	}
	total := time.Since(start)
	runSpan.End(trace.Int("phases_run", len(stats)), trace.Bool("error", err != nil))
	if err != nil {
		return nil, WrapError(ErrInternal, err)
	}
	a.Report.Stats.Time = total
	a.Report.Stats.Phases = stats
	return a, nil
}

// phaseAttrs renders one phase's stats as span attributes, outputs in
// sorted key order for deterministic exports.
func phaseAttrs(st PhaseStat) []trace.Attr {
	attrs := make([]trace.Attr, 0, 2+len(st.Outputs))
	attrs = append(attrs,
		trace.Int64("wall_ns", int64(st.Time)),
		trace.Int64("alloc_bytes", st.AllocBytes))
	keys := make([]string, 0, len(st.Outputs))
	for k := range st.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, trace.Int64("out."+k, st.Outputs[k]))
	}
	return attrs
}

// changedSizes returns the entries of cur that are new or different
// from prev — the relations a phase produced or grew.
func changedSizes(prev, cur map[string]int64) map[string]int64 {
	var out map[string]int64
	for k, v := range cur {
		if pv, ok := prev[k]; !ok || pv != v {
			if out == nil {
				out = make(map[string]int64)
			}
			out[k] = v
		}
	}
	return out
}

// RelationSizes is a snapshot of every relation and counter the
// analysis has produced so far. runPhases diffs the snapshots taken
// before and after each phase, so each key lands in the Outputs of the
// phase that produced (or last grew) it.
func (a *Analysis) RelationSizes() map[string]int64 {
	s := make(map[string]int64)
	if len(a.Files) > 0 {
		s["files"] = int64(len(a.Files))
	}
	if a.Prog != nil {
		s["funcs"] = int64(len(a.Prog.Funcs))
	}
	if a.Graph != nil {
		reach := a.Graph.ReachableFuncs()
		s["reachable_funcs"] = int64(len(reach))
		instrs := 0
		for _, fn := range reach {
			instrs += a.Prog.Funcs[fn].NumInstrs()
		}
		s["reachable_instrs"] = int64(instrs)
	}
	if a.Numbering != nil {
		s["contexts"] = int64(a.Numbering.TotalContexts())
		// Surfaced only when the cap actually merged contexts, so
		// uncapped runs keep their golden phase outputs.
		if a.Numbering.Capped {
			s["ctx_capped"] = 1
		}
	}
	if a.Ptr != nil {
		for k, v := range a.Ptr.SolverStats() {
			s[k] = v
		}
	}
	if len(a.Regions) > 0 {
		s["regions"] = int64(len(a.Regions) - 1)
		s["subregion_edges"] = int64(a.subEdges)
	}
	if a.ownEdges > 0 {
		s["ownership_edges"] = int64(a.ownEdges)
	}
	if len(a.AccessEdges) > 0 {
		s["access_edges"] = int64(len(a.AccessEdges))
	}
	if a.pairs != nil {
		s["object_pairs"] = int64(len(a.pairs))
	}
	if a.bddNodes > 0 {
		s["bdd_nodes"] = a.bddNodes
		s["datalog_tuples"] = a.bddTuples
		s["bdd_cache_hits"] = int64(a.bddStats.CacheHits)
		s["bdd_cache_misses"] = int64(a.bddStats.CacheMisses)
		s["bdd_unique_collisions"] = int64(a.bddStats.UniqueCollisions)
		s["bdd_table_grows"] = int64(a.bddStats.Grows)
	}
	if a.Report != nil {
		s["instruction_pairs"] = int64(a.Report.Stats.IPairs)
		s["warnings"] = int64(len(a.Report.Warnings))
	}
	// Front-end reuse counters, only for snapshot-backed runs so that
	// plain runs' phase outputs (pinned by golden reports) are
	// untouched. Zero values surface nowhere: runPhases only
	// attributes keys whose value changed.
	if a.snapshotting {
		s["parse_files_reused"] = int64(a.Front.ParseReused)
		s["parse_files_parsed"] = int64(a.Front.ParseParsed)
		s["check_files_reused"] = int64(a.Front.CheckReused)
		s["check_files_checked"] = int64(a.Front.CheckChecked)
		s["lower_frags_reused"] = int64(a.Front.LowerReused)
		s["lower_frags_lowered"] = int64(a.Front.LowerLowered)
		if a.Front.CallGraphDirect {
			s["callgraph_direct"] = 1
		}
	}
	return s
}
