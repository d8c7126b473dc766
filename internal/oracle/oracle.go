// Package oracle is the differential soundness harness: it generates
// toy-language packages (plus a mutation layer on top of the
// generator), executes them under the concrete interpreter to collect
// ground-truth region-lifetime violations, runs the static analysis
// under several backend/context configurations, and checks two
// invariants:
//
//   - Soundness: every dynamic violation (an inconsistent access pair
//     observed by the Figure 4 semantics, per equation 4.12) is
//     covered by a statically reported warning, matched by
//     allocation-site source positions. Violations are classified by
//     the planted pattern they stem from, so the known-imprecision
//     classes of reduced-precision configurations are explicit
//     allowlist entries rather than silent passes.
//   - Backend parity: the explicit and BDD backends produce
//     byte-identical reports (times and per-phase metrics excluded),
//     and repeated runs of the same configuration are byte-identical
//     run to run.
//
// Failing cases are shrunk by a greedy statement/file-level minimizer
// (see Minimize) and written to a repro directory with the seed, the
// sources, the dynamic trace, and both backends' reports.
package oracle

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cminor"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workloads"
)

// Violation kinds.
const (
	// KindSoundness: a dynamic inconsistency with no covering static
	// warning under some configuration.
	KindSoundness = "soundness"
	// KindParity: explicit and BDD reports differ under the same
	// configuration.
	KindParity = "parity"
	// KindDeterminism: two runs of the same configuration and backend
	// produced different reports.
	KindDeterminism = "determinism"
	// KindThrottle: the pipeline lost precision (capped contexts,
	// collapsed points-to sets, origin policy) without marking the
	// report throttled — silent precision loss.
	KindThrottle = "throttle"
)

// Violation is one invariant failure found by the harness.
type Violation struct {
	Kind   string `json:"kind"`
	Config string `json:"config"`
	// Class is the pattern classification of a soundness violation
	// (a workloads.Pattern name, or "stage"/"lib"/"main"/"mutated"),
	// empty for parity violations.
	Class string `json:"class,omitempty"`
	// Src/Dst are the allocation-site positions of an uncovered
	// dynamic pair.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Argc identifies the concrete run that observed the pair.
	Argc int64 `json:"argc,omitempty"`
	// Allowed marks a violation matched by an explicit allowlist
	// entry (a documented imprecision class, not a pass).
	Allowed bool `json:"allowed,omitempty"`
	// Rule is the reason string of the matching allowlist entry.
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Explanation pre-triages soundness misses: the derivation tree
	// (human rendering) of the reported warning nearest the missed
	// pair's allocation sites, showing what the analysis did derive
	// there — or a note that nothing was derived at all.
	Explanation string `json:"explanation,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s[%s]", v.Kind, v.Config)
	if v.Class != "" {
		s += " class=" + v.Class
	}
	if v.Src != "" {
		s += fmt.Sprintf(" %s -> %s (argc=%d)", v.Src, v.Dst, v.Argc)
	}
	if v.Detail != "" {
		s += " " + v.Detail
	}
	if v.Allowed {
		s += " (allowlisted: " + v.Rule + ")"
	}
	return s
}

// AllowRule allowlists one (configuration, class) soundness-violation
// combination. Allowlisted violations are still reported — flagged
// Allowed — so known imprecision stays visible.
type AllowRule struct {
	// Config is the configuration name ("" matches any).
	Config string
	// Class is the violation class ("*" matches any class — used for
	// configurations that are documented unsound as a whole).
	Class string
	// Reason documents why the imprecision is expected.
	Reason string
}

func (r AllowRule) matches(v Violation) bool {
	if r.Config != "" && r.Config != v.Config {
		return false
	}
	return r.Class == "*" || r.Class == v.Class
}

// AnalysisConfig is one static-analysis configuration the harness
// runs under both backends.
type AnalysisConfig struct {
	Name string
	Opts core.Options
	// Sound marks configurations expected to satisfy the soundness
	// invariant on the generator's fragment. Reduced-precision
	// configurations (context merging, k-CFA) are checked too, but
	// their failures must match an allowlist entry.
	Sound bool
}

// DefaultConfigs returns the configuration matrix: the sound default
// (full call-path cloning, heap cloning on), the context-insensitive
// ablation
// (ContextCap 1 — documented unsound: merging loses the distinctions
// TestContextSensitivityMatters pins), 2-CFA numbering (bounded call
// strings merge deep paths the same way), the points-to cap (⊤
// collapse past one location per variable — tight enough to actually
// fire on the generated corpus), and allocation-site origin
// contexts. The three throttled configurations (cap1 via ContextCap,
// ptscap, origin) must mark every case where the throttle bit —
// harness-enforced by Check via the canonical report's precision
// line.
func DefaultConfigs() []AnalysisConfig {
	return []AnalysisConfig{
		{Name: "default", Opts: core.Options{}, Sound: true},
		{Name: "cap1", Opts: core.Options{ContextCap: 1}},
		{Name: "kcfa2", Opts: core.Options{KCFA: 2}},
		{Name: "ptscap",
			Opts: core.Options{Solver: core.SolverOptions{PtsLimit: 1}}},
		{Name: "origin",
			Opts: core.Options{ContextPolicy: core.PolicyOrigin}},
	}
}

// Allowlist reasons, shared across configurations that lose precision
// the same way so the sweep summary's AllowedByRule buckets aggregate
// by cause, not by knob spelling.
const (
	// ReasonContextMerge covers every configuration whose context
	// numbering merges the region instances the pair rules must keep
	// distinct: ContextCap=1, bounded k-CFA call strings, and
	// allocation-site origin contexts all collapse deep call paths
	// (the ablations of Sections 6.3 and 7; core's
	// TestContextSensitivityMatters demonstrates the lost warning).
	ReasonContextMerge = "merged contexts collapse the region instances the pair rules need; documented unsound precision ablation (Sections 6.3, 7)"
	// ReasonPtsCap covers the points-to throttle: an overflowing set
	// collapses to the tainted ⊤ object, whose region membership is
	// unknown, so accesses routed through it can fall outside every
	// checked pair. Capped runs are marked throttled.
	ReasonPtsCap = "points-to cap collapses overflowing sets to the tainted ⊤ object; capped runs are marked throttled and misses are documented imprecision"
)

// DefaultAllowlist returns the documented imprecision classes of the
// reduced-precision configurations. Context merging (cap1), bounded
// call strings (kcfa2), and origin contexts share one reason — all
// three merge the region instances whose distinctness the pair rules
// need — and the points-to cap has its own. Every soundness class is
// allowlisted for them; the default configuration has no entries: any
// miss there is a bug.
func DefaultAllowlist() []AllowRule {
	return []AllowRule{
		{Config: "cap1", Class: "*", Reason: ReasonContextMerge},
		{Config: "kcfa2", Class: "*", Reason: ReasonContextMerge},
		{Config: "origin", Class: "*", Reason: ReasonContextMerge},
		{Config: "ptscap", Class: "*", Reason: ReasonPtsCap},
	}
}

// AnalyzeFunc is the analysis entry point the harness drives. Tests
// substitute a deliberately broken analysis to verify the harness
// catches rule regressions.
type AnalyzeFunc func(core.Options, map[string]string) (*core.Analysis, error)

// Harness checks one generated case against the differential
// invariants.
type Harness struct {
	Configs []AnalysisConfig
	Allow   []AllowRule
	// Argcs are the concrete schedules driven per case (argc is the
	// generated main's loop trip count).
	Argcs []int64
	// Interp bounds each concrete run; budget-exceeded runs
	// contribute the effects accumulated up to the abort.
	Interp interp.Options
	// AnalyzeFn defaults to core.AnalyzeSource.
	AnalyzeFn AnalyzeFunc
}

// NewHarness returns a harness with the default configuration matrix,
// allowlist, schedules, and interpreter budgets.
func NewHarness() *Harness {
	return &Harness{
		Configs: DefaultConfigs(),
		Allow:   DefaultAllowlist(),
		Argcs:   []int64{0, 1, 3},
		Interp: interp.Options{
			Fuel:       1 << 18,
			MaxObjects: 1 << 12,
			MaxDepth:   512,
		},
		AnalyzeFn: core.AnalyzeSource,
	}
}

// DynamicViolation is one concrete inconsistency observed by the
// interpreter, keyed by the allocation-site positions the static
// report uses.
type DynamicViolation struct {
	Src, Dst cminor.FilePos
	Argc     int64
	Class    string
}

// CaseResult is the outcome of checking one case.
type CaseResult struct {
	Case *Case
	// Violations lists every invariant failure, including
	// allowlisted ones (flagged Allowed).
	Violations []Violation
	// Dynamic lists the concrete inconsistencies used as ground
	// truth.
	Dynamic []DynamicViolation
	// BudgetAborts counts concrete runs that ended on an interpreter
	// budget (their partial effects still count: events that happened
	// are ground truth regardless of how the run ended).
	BudgetAborts int
	// ObservedPatterns maps planted pattern kinds to whether a
	// dynamic violation was classified to them in this case.
	ObservedPatterns map[workloads.Pattern]bool
	// Reports keeps the canonical report bytes per "config/backend"
	// for repro dumps.
	Reports map[string][]byte
}

// Unallowed returns the violations not matched by the allowlist.
func (r *CaseResult) Unallowed() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if !v.Allowed {
			out = append(out, v)
		}
	}
	return out
}

// parseAll parses and checks the sources in sorted-path order,
// returning an error if the front end rejects them.
func parseAll(sources map[string]string) (*cminor.Info, []*cminor.File, error) {
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var files []*cminor.File
	for _, p := range paths {
		f, errs := cminor.Parse(p, sources[p])
		if len(errs) != 0 {
			return nil, nil, fmt.Errorf("parse %s: %v", p, errs[0])
		}
		files = append(files, f)
	}
	info := cminor.Check(files...)
	if len(info.Errors) != 0 {
		return nil, nil, fmt.Errorf("check: %v", info.Errors[0])
	}
	return info, files, nil
}

// Check runs the full differential pipeline on one case.
func (h *Harness) Check(c *Case) (*CaseResult, error) {
	res := &CaseResult{
		Case:             c,
		ObservedPatterns: make(map[workloads.Pattern]bool),
		Reports:          make(map[string][]byte),
	}
	info, files, err := parseAll(c.Sources)
	if err != nil {
		return nil, err
	}
	cls := newClassifier(files)

	// Ground truth: concrete runs across the schedule set.
	dynamic, aborts, err := h.runDynamic(info, files, cls)
	if err != nil {
		return nil, err
	}
	res.Dynamic = dynamic
	res.BudgetAborts = aborts
	planted := make(map[workloads.Pattern]bool)
	for _, p := range c.Exe.Plants {
		planted[p.Pattern] = true
	}
	for _, d := range dynamic {
		if planted[workloads.Pattern(d.Class)] {
			res.ObservedPatterns[workloads.Pattern(d.Class)] = true
		}
	}

	analyze := h.AnalyzeFn
	if analyze == nil {
		analyze = core.AnalyzeSource
	}
	for _, cfg := range h.Configs {
		expOpts := cfg.Opts
		expOpts.Solver.Backend = core.ExplicitBackend
		bddOpts := cfg.Opts
		bddOpts.Solver.Backend = core.BDDBackend

		exp, err := analyze(expOpts, c.Sources)
		if err != nil {
			return nil, fmt.Errorf("config %s explicit: %w", cfg.Name, err)
		}
		bdd, err := analyze(bddOpts, c.Sources)
		if err != nil {
			return nil, fmt.Errorf("config %s bdd: %w", cfg.Name, err)
		}
		expBytes := CanonicalReport(exp.Report)
		bddBytes := CanonicalReport(bdd.Report)
		res.Reports[cfg.Name+"/explicit"] = expBytes
		res.Reports[cfg.Name+"/bdd"] = bddBytes

		// Backend parity: canonical reports must be byte-identical.
		if string(expBytes) != string(bddBytes) {
			res.Violations = append(res.Violations, Violation{
				Kind:   KindParity,
				Config: cfg.Name,
				Detail: firstDiff(expBytes, bddBytes),
			})
		}
		// Run-to-run determinism, per backend.
		for _, rerun := range []struct {
			name string
			opts core.Options
			want []byte
		}{
			{"explicit", expOpts, expBytes},
			{"bdd", bddOpts, bddBytes},
		} {
			again, err := analyze(rerun.opts, c.Sources)
			if err != nil {
				return nil, fmt.Errorf("config %s %s rerun: %w", cfg.Name, rerun.name, err)
			}
			b := CanonicalReport(again.Report)
			if string(b) != string(rerun.want) {
				res.Violations = append(res.Violations, Violation{
					Kind:   KindDeterminism,
					Config: cfg.Name + "/" + rerun.name,
					Detail: firstDiff(rerun.want, b),
				})
			}
		}

		// Throttle visibility: precision lost inside the pipeline must
		// reach the report stats, or downstream consumers read a capped
		// run as a fully precise one.
		for _, run := range []struct {
			name string
			a    *core.Analysis
		}{{"explicit", exp}, {"bdd", bdd}} {
			if d := throttleMismatch(run.a); d != "" {
				res.Violations = append(res.Violations, Violation{
					Kind:   KindThrottle,
					Config: cfg.Name + "/" + run.name,
					Detail: d,
				})
			}
		}

		// Soundness: every dynamic pair covered by a static warning.
		static := make(map[string]bool)
		for _, ps := range exp.PairSites() {
			static[posKey(ps.Src, ps.Dst)] = true
		}
		miss := &missExplainer{a: exp}
		for _, d := range dynamic {
			if static[posKey(d.Src, d.Dst)] {
				continue
			}
			v := Violation{
				Kind:        KindSoundness,
				Config:      cfg.Name,
				Class:       d.Class,
				Src:         d.Src.String(),
				Dst:         d.Dst.String(),
				Argc:        d.Argc,
				Explanation: miss.nearest(d.Src, d.Dst),
			}
			for _, rule := range h.Allow {
				if rule.matches(v) {
					v.Allowed = true
					v.Rule = rule.Reason
					break
				}
			}
			res.Violations = append(res.Violations, v)
		}
	}
	return res, nil
}

// runDynamic executes the case across the schedule set and collects
// the deduplicated dynamic violations.
func (h *Harness) runDynamic(info *cminor.Info, files []*cminor.File, cls *classifier) ([]DynamicViolation, int, error) {
	var out []DynamicViolation
	seen := make(map[string]bool)
	aborts := 0
	for _, argc := range h.Argcs {
		opts := h.Interp
		opts.Args = []int64{argc}
		eff, err := interp.Run(info, opts, files...)
		if err != nil {
			if isBudget(err) {
				aborts++
			} else {
				return nil, 0, fmt.Errorf("interp argc=%d: %w", argc, err)
			}
		}
		for _, inc := range eff.Inconsistencies() {
			src := inc.Edge.Src.Site
			var dst cminor.FilePos
			if inc.Edge.DstReg != nil {
				dst = inc.Edge.DstReg.Site
			} else {
				dst = inc.Edge.DstObj.Site
			}
			k := posKey(src, dst)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, DynamicViolation{
				Src:   src,
				Dst:   dst,
				Argc:  argc,
				Class: cls.classify(src, dst),
			})
		}
	}
	return out, aborts, nil
}

// throttleMismatch reports the first way a run's internal precision
// loss failed to reach its report stats ("" when the marking is
// faithful). Capped context numbering, collapsed points-to sets, and
// the origin policy must all be visible in the report — silent loss
// is exactly what the throttle contract forbids.
func throttleMismatch(a *core.Analysis) string {
	s := a.Report.Stats
	if got := a.Ptr.CappedVars(); got != s.PtrCappedVars {
		return fmt.Sprintf("pointer solver capped %d variable(s) but the report marks ptr_capped_vars=%d", got, s.PtrCappedVars)
	}
	if a.Numbering.Capped != s.CtxCapped {
		return fmt.Sprintf("context numbering capped=%t but the report marks ctx_capped=%t", a.Numbering.Capped, s.CtxCapped)
	}
	if (a.Opts.ContextPolicy == core.PolicyOrigin) != (s.Policy == core.PolicyOrigin) {
		return fmt.Sprintf("run used context policy %q but the report marks policy=%q", a.Opts.ContextPolicy, s.Policy)
	}
	return ""
}

func isBudget(err error) bool {
	return errors.Is(err, interp.ErrBudget)
}

func posKey(src, dst cminor.FilePos) string {
	return src.String() + "|" + dst.String()
}

// firstDiff summarizes where two canonical reports diverge.
func firstDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("report lengths differ: %d vs %d lines", len(al), len(bl))
}
