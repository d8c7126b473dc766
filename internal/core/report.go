package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/pointer"
)

// Stats carries the quantitative columns of the paper's Figure 11 for
// one executable.
type Stats struct {
	Time     time.Duration
	R        int   // region instances
	H        int   // normal (region-allocated) object instances
	Sub      int   // subregion relation size
	Own      int   // ownership relation size
	Heap     int   // heap (access) relation size
	RPairs   int64 // region pairs with no subregion partial order
	OPairs   int   // inconsistent object pairs
	IPairs   int   // context-insensitive instruction pairs
	High     int   // high-ranked I-pairs
	Contexts uint64
	Funcs    int
	Instrs   int
	// Causes and HighCauses approximate the paper's "unique causes"
	// column: warnings clustered by the function containing the
	// holder's allocation site (the original paper clustered by
	// manual inspection).
	Causes     int
	HighCauses int
	// Phases is the pipeline cost breakdown: one entry per executed
	// phase, in execution order.
	Phases []PhaseStat
	// Precision-throttle visibility: a run that merged contexts
	// (CtxCapped), collapsed points-to sets to ⊤ (PtrCappedVars), or
	// ran the origin context policy is degraded relative to the full
	// cloning analysis, and the report must say so (no silent
	// degradation). Policy names the context policy that ran.
	Policy        string
	CtxCapped     bool
	PtrCappedVars int
}

// Throttled reports whether the run's precision was visibly reduced:
// context-cap merging, points-to-set collapse, or the origin context
// policy. Throttled runs carry a "precision" block in the report JSON
// and mark every warning.
func (s Stats) Throttled() bool {
	return s.CtxCapped || s.PtrCappedVars > 0 || s.Policy == PolicyOrigin
}

// PhaseStat is one pipeline phase's contribution to the run: wall
// time, allocation, and the outputs the phase itself reports, the
// sizes of the relations and the counters it produced.
//
// AllocBytes is the growth of the runtime/metrics sample
// /gc/heap/allocs:bytes across the phase. The sample is process-wide:
// under concurrent runs it includes the other runs' allocations. It is
// also cache-granular: small objects are counted when a per-P span
// cache is refilled or flushed, so a phase that allocates a few tens of
// kilobytes may read low or as 0, while megabytes read within a few
// tens of kilobytes.
type PhaseStat struct {
	Name       string
	Time       time.Duration
	AllocBytes int64
	Outputs    map[string]int64
}

// Warning is one reported inconsistency, condensed to an instruction
// pair and decorated for human inspection.
type Warning struct {
	IPair IPair
	// Where the holder and pointee were allocated.
	SrcPos, DstPos string
	// Owner region descriptions for the representative object pair.
	SrcRegion, DstRegion string
	// Message is a one-line summary.
	Message string
	// Cause clusters warnings that share a root cause: the function
	// containing the holder's allocation site.
	Cause string
	// Throttled marks a warning produced by a reduced-precision run
	// (see Stats.Throttled): the pair may be an artifact of context
	// merging or ⊤ collapse rather than of the program.
	Throttled bool
}

// High reports the Section 5.4 rank.
func (w Warning) High() bool { return w.IPair.High }

// Report is the analysis outcome.
type Report struct {
	Warnings []Warning // high-ranked first, then by site
	Stats    Stats
}

// HighWarnings returns only the high-ranked warnings.
func (r *Report) HighWarnings() []Warning {
	var out []Warning
	for _, w := range r.Warnings {
		if w.High() {
			out = append(out, w)
		}
	}
	return out
}

// String renders the report in the tool's output format.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regionwiz: %d warning(s), %d high-ranked\n",
		len(r.Warnings), r.Stats.High)
	for i, w := range r.Warnings {
		rank := "    "
		if w.High() {
			rank = "HIGH"
		}
		fmt.Fprintf(&sb, "%3d [%s] %s\n", i+1, rank, w.Message)
	}
	s := r.Stats
	fmt.Fprintf(&sb, "stats: time=%v R=%d H=%d sub=%d own=%d heap=%d R-pair=%d O-pair=%d I-pair=%d high=%d contexts=%d\n",
		s.Time.Round(time.Millisecond), s.R, s.H, s.Sub, s.Own, s.Heap, s.RPairs, s.OPairs, s.IPairs, s.High, s.Contexts)
	return sb.String()
}

// postProcess ranks the instruction pairs the pairs phase condensed,
// sorts them, and assembles the report (Section 5.4). Stats.Time and
// Stats.Phases are filled in by runPhases once the last phase
// completes.
func (a *Analysis) postProcess() *Report {
	warnings := make([]Warning, 0, len(a.ipairs))
	high := 0
	causes := map[string]bool{}
	highCauses := map[string]bool{}
	for _, ip := range a.ipairs {
		if ip.High {
			high++
		}
		w := a.describe(*ip)
		causes[w.Cause] = true
		if ip.High {
			highCauses[w.Cause] = true
		}
		warnings = append(warnings, w)
	}
	// Deterministic total order: high-ranked warnings first; within a
	// rank, by holder (source) allocation site string — file:line —
	// then pointee site, then the condensed pair key (source
	// instruction ID, field offset, destination instruction ID).
	// Repeated runs over the same input therefore produce
	// byte-identical reports (asserted by TestReportDeterminism).
	sort.Slice(warnings, func(i, j int) bool {
		wi, wj := warnings[i], warnings[j]
		if wi.High() != wj.High() {
			return wi.High()
		}
		if wi.SrcPos != wj.SrcPos {
			return wi.SrcPos < wj.SrcPos
		}
		if wi.DstPos != wj.DstPos {
			return wi.DstPos < wj.DstPos
		}
		ki, kj := wi.IPair, wj.IPair
		if ki.SrcSite != kj.SrcSite {
			return ki.SrcSite < kj.SrcSite
		}
		if ki.Off != kj.Off {
			return ki.Off < kj.Off
		}
		return ki.DstSite < kj.DstSite
	})
	reach := a.Graph.ReachableFuncs()
	instrs := 0
	for _, fn := range reach {
		instrs += a.Prog.Funcs[fn].NumInstrs()
	}
	stats := Stats{
		R:             a.RegionCount(),
		H:             a.ObjectCount(),
		Sub:           a.subEdges,
		Own:           a.ownEdges,
		Heap:          a.accessEdges,
		RPairs:        a.RPairCount(),
		OPairs:        a.objectPairs,
		IPairs:        len(a.ipairs),
		High:          high,
		Contexts:      a.Numbering.TotalContexts(),
		Funcs:         len(reach),
		Instrs:        instrs,
		Causes:        len(causes),
		HighCauses:    len(highCauses),
		Policy:        a.Opts.ContextPolicy,
		CtxCapped:     a.Numbering.Capped,
		PtrCappedVars: a.Ptr.CappedVars(),
	}
	if stats.Throttled() {
		for i := range warnings {
			warnings[i].Throttled = true
		}
	}
	return &Report{Warnings: warnings, Stats: stats}
}

// describe renders one I-pair as a Warning.
func (a *Analysis) describe(ip IPair) Warning {
	w := Warning{IPair: ip}
	w.SrcPos = a.objPos(ip.Example.Src)
	w.DstPos = a.objPos(ip.Example.Dst)
	w.Cause = a.causeOf(ip.Example.Src)
	w.SrcRegion = a.regionDesc(ip.Example.Evidence[0])
	w.DstRegion = a.regionDesc(ip.Example.Evidence[1])
	w.Message = fmt.Sprintf(
		"object allocated at %s may hold a dangling pointer (offset %d) to object allocated at %s: owner region %s has no subregion order with %s",
		w.SrcPos, ip.Off, w.DstPos, w.SrcRegion, w.DstRegion)
	return w
}

// causeOf names the function containing an object's allocation site
// (the cause-clustering key).
func (a *Analysis) causeOf(obj int) string {
	o := a.Ptr.Objects[obj]
	if o.Kind == pointer.AllocObj {
		return a.Prog.Instr(int(o.Site)).Func().Name
	}
	if o.Kind == pointer.ParamObj {
		return o.Fn
	}
	return "<unknown>"
}

func (a *Analysis) objPos(obj int) string {
	o := a.Ptr.Objects[obj]
	switch o.Kind {
	case pointer.AllocObj:
		if p := a.sitePos(obj); p.IsValid() {
			return fmt.Sprintf("%s (%s)", p, o.Fn)
		}
		return o.Fn
	case pointer.VarStorageObj:
		return fmt.Sprintf("&%s", a.Prog.VarName(o.Var))
	case pointer.ParamObj:
		return fmt.Sprintf("param %s of %s", a.Prog.VarName(o.Var), o.Fn)
	case pointer.StringObj:
		if o.Str < a.Prog.NumStrings() {
			return fmt.Sprintf("%q", a.Prog.StringLit(o.Str).Value)
		}
		return "string"
	case pointer.TopObj:
		// The tainted ⊤ a PtsLimit overflow collapses to: it has no
		// allocation site.
		return "<top>"
	}
	return "?"
}

func (a *Analysis) regionDesc(idx int) string {
	if idx == RootRegion {
		return "<root>"
	}
	r := a.Regions[idx]
	if r.Obj >= 0 {
		if p := a.sitePos(r.Obj); p.IsValid() {
			return fmt.Sprintf("region@%s#%d", p, r.Ctx)
		}
		if o := a.Ptr.Objects[r.Obj]; o.Kind == pointer.ParamObj {
			return fmt.Sprintf("param-region %s of %s", a.Prog.VarName(o.Var), o.Fn)
		}
	}
	return fmt.Sprintf("region#%d", idx)
}
