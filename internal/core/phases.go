package core

import (
	"context"
	"runtime/metrics"
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
	PhasePost      = "post"      // ranking + report assembly (Section 5.4)
)

// PhaseNames lists every analysis phase in execution order.
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
		ipairs:     make(map[ipairKey]*IPair),
	}
}

// phase is one named stage of the analysis over the shared state.
// ctx is the run's; long phases poll it for cancellation. run returns
// the phase's outputs, the sizes of the relations and the counters it
// produced (PhaseStat.Outputs), or nil when it produced none worth
// reporting.
type phase struct {
	name string
	run  func(ctx context.Context, a *Analysis) (map[string]int64, error)
}

// phases is the analysis in execution order; parse and check turn
// a.Sources into a.Files and a.Info.
// Incremental runs (a.base set) reuse the base's ASTs for unchanged
// files and, when every changed file keeps its declarations apart from
// whole added or removed function definitions (incrementalEdits),
// re-check only the changed files against the base's declaration
// environment and relink the base's IR fragments for the rest.
var phases = []phase{
	{PhaseParse, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		paths := make([]string, 0, len(a.Sources))
		for p := range a.Sources {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if a.base != nil {
			a.baseIndex = make(map[string]int, len(a.base.Files))
			for i, f := range a.base.Files {
				a.baseIndex[f.Path] = i
			}
			a.changed = make(map[string]bool, len(paths))
		}
		// One token budget covers every file of the analysis. A
		// reused file that would overspend it is parsed again, so
		// the error names the token over budget.
		var budget cminor.TokenBudget
		for _, p := range paths {
			if a.base != nil {
				if f, ok := a.reusedFile(p); ok && budget.Reuse(f) {
					a.Files = append(a.Files, f)
					a.Front.ParseReused++
					continue
				}
				a.changed[p] = true
			}
			f, errs := budget.Parse(p, a.Sources[p])
			if len(errs) != 0 {
				return nil, Errf(ErrParse, errs[0].Pos.String(),
					"parse %s: %v (and %d more)", p, errs[0], len(errs)-1)
			}
			a.Files = append(a.Files, f)
			a.Front.ParseParsed++
		}
		return nonZero(map[string]int{
			"files":              len(a.Files),
			"parse_files_reused": a.Front.ParseReused,
			"parse_files_parsed": a.Front.ParseParsed,
		}), nil
	}},
	{PhaseCheck, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		// An incremental check that reports a diagnostic is discarded:
		// the full check's diagnostics are the ones a delta reports.
		if edits, ok := a.incrementalEdits(); ok {
			if info := cminor.CheckIncremental(a.base.Info, a.Files, edits); info != nil && len(info.Errors) == 0 {
				a.Info, a.incrementalCheck = info, true
				a.Front.CheckChecked = len(edits)
				a.Front.CheckReused = len(a.Files) - len(edits)
			}
		}
		if !a.incrementalCheck {
			a.Info = cminor.Check(a.Files...)
			a.Front.CheckChecked = len(a.Files)
		}
		if len(a.Info.Errors) != 0 {
			return nil, Errf(ErrParse, a.Info.Errors[0].Pos.String(),
				"check: %v (and %d more)", a.Info.Errors[0], len(a.Info.Errors)-1)
		}
		return nonZero(map[string]int{
			"check_files_reused":  a.Front.CheckReused,
			"check_files_checked": a.Front.CheckChecked,
		}), nil
	}},
	{PhaseLower, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		// Per-file fragments, reused from the base when the file is
		// unchanged and the declaration environment held (fragments
		// bake in type layouts and symbol kinds, so a full fallback
		// check invalidates all of them). Link assigns all
		// program-wide IDs in file order.
		frags := make([]*ir.Fragment, len(a.Files))
		for i, f := range a.Files {
			if a.incrementalCheck && !a.changed[f.Path] {
				frags[i] = a.base.Prog.Fragment(a.baseIndex[f.Path])
				a.Front.LowerReused++
			} else {
				frags[i] = ir.LowerFile(a.Info, f)
				a.Front.LowerLowered++
			}
		}
		a.Prog = ir.Link(a.Info, frags)
		entries := a.Opts.Entries
		if len(entries) == 0 {
			if _, ok := a.Prog.Funcs[a.Opts.Entry]; !ok {
				return nil, Errf(ErrResolve, "", "entry function %q not defined", a.Opts.Entry)
			}
			entries = []string{a.Opts.Entry}
		} else {
			for _, e := range entries {
				if _, ok := a.Prog.Funcs[e]; !ok {
					return nil, Errf(ErrResolve, "", "entry function %q not defined", e)
				}
			}
		}
		a.entries = entries
		return nonZero(map[string]int{
			"funcs":               len(a.Prog.Funcs),
			"lower_frags_reused":  a.Front.LowerReused,
			"lower_frags_lowered": a.Front.LowerLowered,
		}), nil
	}},
	{PhaseCallGraph, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		a.Graph = callgraph.BuildEntries(a.Prog, a.entries, a.Opts.ImplicitSpecs)
		reach := a.Graph.ReachableFuncs()
		instrs := 0
		for _, fn := range reach {
			instrs += a.Prog.Funcs[fn].NumInstrs()
		}
		return map[string]int64{
			"reachable_funcs":  int64(len(reach)),
			"reachable_instrs": int64(instrs),
		}, nil
	}},
	{PhaseContexts, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		switch a.Opts.ContextPolicy {
		case PolicyOrigin:
			a.Numbering = contexts.NewOrigin(a.Graph, a.Opts.ContextCap, a.originFns())
		case PolicyKCFA:
			a.Numbering = contexts.NewKCFA(a.Graph, a.Opts.KCFA, a.Opts.ContextCap)
		default:
			a.Numbering = contexts.Number(a.Graph, a.Opts.ContextCap)
		}
		out := map[string]int64{"contexts": int64(a.Numbering.TotalContexts())}
		// Reported only when the cap actually merged contexts, so
		// uncapped runs keep their golden phase outputs.
		if a.Numbering.Capped {
			out["ctx_capped"] = 1
		}
		return out, nil
	}},
	{PhasePointer, func(ctx context.Context, a *Analysis) (map[string]int64, error) {
		var err error
		if a.Ptr, err = pointer.AnalyzeContext(ctx, a.Numbering, a.pointerConfig()); err != nil {
			return nil, err
		}
		return a.Ptr.SolverStats(), nil
	}},
	{PhaseRegions, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		a.extractRegions()
		a.collapseParents()
		return map[string]int64{
			"regions":         int64(len(a.Regions) - 1),
			"subregion_edges": int64(a.subEdges),
		}, nil
	}},
	{PhaseOwnership, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		a.extractOwnership()
		return nonZero(map[string]int{"ownership_edges": a.ownEdges}), nil
	}},
	{PhaseAccess, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		a.eachAccess(func(int, int64, int) { a.accessEdges++ })
		return nonZero(map[string]int{"access_edges": a.accessEdges}), nil
	}},
	{PhasePairs, func(ctx context.Context, a *Analysis) (map[string]int64, error) {
		out := a.eachObjectPair(ctx, a.foldPair)
		if a.objectPairs > 0 {
			if out == nil {
				out = make(map[string]int64, 1)
			}
			out["object_pairs"] = int64(a.objectPairs)
		}
		return out, nil
	}},
	{PhasePost, func(_ context.Context, a *Analysis) (map[string]int64, error) {
		a.Report = a.postProcess()
		return map[string]int64{
			"instruction_pairs": int64(a.Report.Stats.IPairs),
			"warnings":          int64(len(a.Report.Warnings)),
		}, nil
	}},
}

// nonZero converts a phase's counts to its outputs, leaving out the
// zero ones: a run without a base reports no reuse, and a program
// without regions no ownership or access edges. It returns nil when
// every count is zero.
func nonZero(counts map[string]int) map[string]int64 {
	var out map[string]int64
	for k, v := range counts {
		if v == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]int64, len(counts))
		}
		out[k] = int64(v)
	}
	return out
}

// phaseDone, when set, is called after every phase that ran, before
// the run checks ctx again. Tests use it to act between phases.
var phaseDone func(name string)

// runPhases runs ps over a in order and writes their costs into the
// report's stats. Between phases it checks ctx: a cancelled or expired
// context stops the run before the next phase. Inside a phase only the
// pointer solve checks it, once per fixpoint round, and returns its
// error as a phase error. A phase error stops the run likewise. Either
// way runPhases returns a nil analysis and an error of kind
// ErrInternal (phase errors are already typed and keep their kind)
// that unwraps to the cause.
//
// Every phase is timed and credited with the outputs it returns. Its
// allocation is the growth of the runtime/metrics sample
// /gc/heap/allocs:bytes across it, read once before the first phase
// and once after each, so the phases' figures add up to the run's
// (see PhaseStat for what the sample counts). When ctx carries a
// trace.Tracer the run is a "pipeline" span and every phase a
// "phase:<name>" child span carrying the same numbers.
func runPhases(ctx context.Context, a *Analysis, ps []phase) (*Analysis, error) {
	start := time.Now()
	ctx, runSpan := trace.StartSpan(ctx, "pipeline")
	stats := make([]PhaseStat, 0, len(ps))
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	prevAlloc := allocs[0].Value.Uint64()
	var err error
	for _, ph := range ps {
		if err = ctx.Err(); err != nil {
			break
		}
		pctx, span := trace.StartSpan(ctx, "phase:"+ph.name)
		t0 := time.Now()
		var out map[string]int64
		out, err = ph.run(pctx, a)
		wall := time.Since(t0)
		metrics.Read(allocs)
		alloc := allocs[0].Value.Uint64()
		st := PhaseStat{
			Name:       ph.name,
			Time:       wall,
			AllocBytes: int64(alloc - prevAlloc),
			Outputs:    out,
		}
		prevAlloc = alloc
		if span != nil {
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
