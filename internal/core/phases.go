package core

import (
	"context"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/contexts"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pointer"
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
	return []string{
		PhaseParse, PhaseCheck, PhaseLower, PhaseCallGraph,
		PhaseContexts, PhasePointer, PhaseRegions, PhaseOwnership,
		PhaseAccess, PhasePairs, PhasePost,
	}
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

// frontEndPhases parses and checks a.Sources into a.Files and a.Info.
// Snapshot-backed runs (a.snapshotting) digest every file; incremental
// runs (a.prev set) additionally reuse the base snapshot's ASTs for
// digest-unchanged files and, when the edit preserves all declaration
// signatures, re-check only the changed files against the base's
// declaration environment.
func frontEndPhases() []pipeline.Phase[*Analysis] {
	return []pipeline.Phase[*Analysis]{
		pipeline.WithInputs(pipeline.New(PhaseParse, func(_ context.Context, a *Analysis) error {
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
		}), "sources"),
		pipeline.WithInputs(pipeline.New(PhaseCheck, func(_ context.Context, a *Analysis) error {
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
		}), "files", "decl_signatures"),
	}
}

// analysisPhases is the back half of the pipeline: everything after
// the front end, operating on a.Info and a.Files.
func analysisPhases() []pipeline.Phase[*Analysis] {
	return []pipeline.Phase[*Analysis]{
		pipeline.WithInputs(pipeline.New(PhaseLower, func(_ context.Context, a *Analysis) error {
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
		}), "files", "info"),
		pipeline.WithInputs(pipeline.New(PhaseCallGraph, func(_ context.Context, a *Analysis) error {
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
		}), "funcs", "entries"),
		pipeline.WithInputs(pipeline.New(PhaseContexts, func(_ context.Context, a *Analysis) error {
			switch {
			case a.Opts.ContextPolicy == PolicyOrigin:
				a.Numbering = contexts.NewOrigin(a.Graph, a.Opts.ContextCap, a.originFns())
			case a.Opts.KCFA > 0:
				a.Numbering = contexts.NewKCFA(a.Graph, a.Opts.KCFA, a.Opts.ContextCap)
			default:
				a.Numbering = contexts.Number(a.Graph, a.Opts.ContextCap)
			}
			return nil
		}), "reachable_funcs", "call_edges"),
		pipeline.WithInputs(pipeline.New(PhasePointer, func(ctx context.Context, a *Analysis) error {
			a.Ptr = pointer.AnalyzeContext(ctx, a.Numbering, a.pointerConfig())
			return nil
		}), "contexts", "reachable_instrs"),
		pipeline.WithInputs(pipeline.New(PhaseRegions, func(_ context.Context, a *Analysis) error {
			a.extractRegions()
			a.collapseParents()
			return nil
		}), "points_to", "region_api"),
		pipeline.WithInputs(pipeline.New(PhaseOwnership, func(_ context.Context, a *Analysis) error {
			a.extractOwnership()
			return nil
		}), "regions", "points_to"),
		pipeline.WithInputs(pipeline.New(PhaseAccess, func(_ context.Context, a *Analysis) error {
			a.extractAccess()
			return nil
		}), "ownership_edges", "heap_edges"),
		pipeline.WithInputs(pipeline.New(PhasePairs, func(ctx context.Context, a *Analysis) error {
			a.pairs = a.computeObjectPairs(ctx)
			// Opt-in provenance recording (explain.go): the explicit
			// backend captures witnesses here; the BDD backend answers
			// Explain by demand-driven replay instead. Recording writes
			// only a.prov, never the pairs or any metric key.
			if a.Opts.Provenance && a.Opts.Solver.Backend == ExplicitBackend {
				a.recordProvenance(ctx)
			}
			return nil
		}), "regions", "subregion_edges", "ownership_edges", "access_edges"),
		pipeline.WithInputs(pipeline.New(PhasePost, func(_ context.Context, a *Analysis) error {
			a.Report = a.postProcess(a.pairs)
			return nil
		}), "object_pairs"),
	}
}

// runPhases executes a phase list over a and folds the pipeline
// metrics into the report's stats.
func runPhases(ctx context.Context, a *Analysis, phases []pipeline.Phase[*Analysis]) (*Analysis, error) {
	r := pipeline.NewRunner(phases...)
	r.Observer = a.Opts.Observer
	m, err := r.Run(ctx, a)
	a.Metrics = m
	if err != nil {
		// Phase errors are already typed; anything else (a context
		// cancellation, an unexpected failure) becomes an internal
		// Error that still unwraps to its cause.
		return nil, WrapError(ErrInternal, err)
	}
	a.Report.Stats.Time = m.Total
	a.Report.Stats.Phases = phaseStats(m)
	return a, nil
}

// phaseStats converts pipeline metrics to the report's stable form.
func phaseStats(m *pipeline.Metrics) []PhaseStat {
	out := make([]PhaseStat, 0, len(m.Phases))
	for _, pm := range m.Phases {
		out = append(out, PhaseStat{
			Name:       pm.Name,
			Time:       pm.Wall,
			AllocBytes: pm.AllocBytes,
			Outputs:    pm.Outputs,
		})
	}
	return out
}

// RelationSizes implements pipeline.RelationSizer: a snapshot of
// every relation and counter the pipeline has produced so far. The
// Runner diffs consecutive snapshots to attribute sizes to phases, so
// each key lands in the Outputs of the phase that produced (or last
// grew) it.
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
	// untouched. Zero values surface nowhere: the Runner only
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
