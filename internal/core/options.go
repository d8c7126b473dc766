package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/bdd"
)

// SolverOptions groups every knob that controls *how* an analysis is
// solved, as opposed to *what* it computes: fixpoint budget,
// points-to cap, pair-computation backend, and BDD kernel sizing. It
// lives at Options.Solver.
type SolverOptions struct {
	// MaxRounds bounds the pointer fixpoint's iteration count
	// (0 = unlimited). A cutoff changes results, so a nonzero value is
	// fingerprinted.
	MaxRounds int
	// PtsLimit caps each variable's points-to set in the pointer
	// solve (0 = unlimited). A set about to exceed the cap collapses
	// to a tainted ⊤ object — a documented-unsound throttle
	// (origin-go-tools' ptsLimit): loads through ⊤ yield ⊤, stores
	// through ⊤ are dropped. Capped runs surface a ptr_capped_vars
	// phase output, a report-level precision block, and per-warning
	// "throttled" annotations; a nonzero cap changes results and is
	// fingerprinted.
	PtsLimit int
	// Backend selects the pair-computation engine.
	Backend Backend
	// BDD sizes the BDD kernel's node table and operation caches when
	// the BDD backend runs (the zero value selects kernel defaults).
	// Sizing changes time and memory, never results, so it is excluded
	// from Fingerprint.
	BDD bdd.Config
}

// Validate checks the invariants an Options value must satisfy before
// an analysis can run: KCFA may not be negative, every region-creation
// spec's OutArg must be -1 (return value) or an argument index, and an
// analysis needs at least one root — a non-empty Entry or a non-nil
// Entries slice (an empty non-nil slice means "every defined
// function", the open-program mode). Analyze* validate the normalized
// options at the boundary, so zero-value Options keep working there;
// calling Validate directly on a raw zero value reports the missing
// entry.
func (o Options) Validate() error {
	if o.KCFA < 0 {
		return Errf(ErrConfig, "", "options: negative KCFA %d", o.KCFA)
	}
	if o.Solver.MaxRounds < 0 {
		return Errf(ErrConfig, "", "options: negative Solver.MaxRounds %d", o.Solver.MaxRounds)
	}
	if o.Solver.PtsLimit < 0 {
		return Errf(ErrConfig, "", "options: negative Solver.PtsLimit %d", o.Solver.PtsLimit)
	}
	if o.Solver.BDD.NodeSize > bdd.MaxNodeSize {
		return Errf(ErrConfig, "", "options: Solver.BDD.NodeSize %d exceeds %d", o.Solver.BDD.NodeSize, bdd.MaxNodeSize)
	}
	switch o.ContextPolicy {
	case "", PolicyClone, PolicyOrigin:
		if o.KCFA > 0 && o.ContextPolicy != "" {
			return Errf(ErrConfig, "", "options: ContextPolicy %q conflicts with KCFA=%d (k-CFA call strings are the %q policy)", o.ContextPolicy, o.KCFA, PolicyKCFA)
		}
	case PolicyKCFA:
		if o.KCFA == 0 {
			return Errf(ErrConfig, "", "options: ContextPolicy %q needs KCFA > 0 to set the call-string depth", o.ContextPolicy)
		}
	default:
		return Errf(ErrConfig, "", "options: unknown ContextPolicy %q (want clone, kcfa, or origin)", o.ContextPolicy)
	}
	if o.Entry == "" && o.Entries == nil {
		return Errf(ErrConfig, "", "options: empty Entry with nil Entries: no analysis root")
	}
	if o.API != nil {
		names := make([]string, 0, len(o.API.Create))
		for name := range o.API.Create {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if spec := o.API.Create[name]; spec.OutArg < -1 {
				return Errf(ErrConfig, "", "options: create spec %q: OutArg %d (want -1 for return value, or an argument index)", name, spec.OutArg)
			}
		}
	}
	return nil
}

// Normalize returns the canonical form of the options: defaults
// filled (Entry "main", merged APR+RC API, context cap 4096, heap
// cloning on), Entry cleared when Entries is set (it is ignored then),
// and Entries/ExtraAllocFns sorted and deduplicated. Two Options
// values that configure the same analysis normalize to the same form,
// which is what Fingerprint hashes — the options half of the analysis
// service's cache key. Normalize fills, it does not reject; pair it
// with Validate.
func (o Options) Normalize() Options {
	if o.Entries != nil {
		o.Entry = ""
		o.Entries = sortedUnique(o.Entries)
	} else if o.Entry == "" {
		o.Entry = "main"
	}
	if o.API == nil {
		o.API = MergeAPIs(APRPools(), RCRegions())
	}
	if o.ContextCap == 0 {
		o.ContextCap = 4096
	}
	if o.HeapCloning == nil {
		t := true
		o.HeapCloning = &t
	}
	if o.ContextPolicy == "" {
		if o.KCFA > 0 {
			o.ContextPolicy = PolicyKCFA
		} else {
			o.ContextPolicy = PolicyClone
		}
	}
	o.ExtraAllocFns = sortedUnique(o.ExtraAllocFns)
	return o
}

// sortedUnique sorts and deduplicates without mutating the input,
// preserving nil-ness (nil and empty Entries mean different things).
func sortedUnique(in []string) []string {
	if in == nil {
		return nil
	}
	out := make([]string, 0, len(in))
	seen := make(map[string]bool, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Fingerprint returns a stable hex digest of the normalized options —
// every field that can change an analysis result (entry roots, API
// specs, context configuration, backend, refinements, extern models).
// BDD is excluded: kernel sizing changes time and memory, never
// results. Together with per-file source digests this keys the
// analysis service's result cache.
func (o Options) Fingerprint() string {
	o = o.Normalize()
	h := sha256.New()
	fmt.Fprintf(h, "entry=%q\n", o.Entry)
	if o.Entries == nil {
		io.WriteString(h, "entries=nil\n")
	} else {
		fmt.Fprintf(h, "entries=%q\n", o.Entries)
	}
	fmt.Fprintf(h, "cap=%d cloning=%t backend=%d kcfa=%d refine=%t\n",
		o.ContextCap, *o.HeapCloning, o.Solver.Backend, o.KCFA, o.DefUseRefinement)
	fmt.Fprintf(h, "extra_alloc=%q\n", o.ExtraAllocFns)
	// A fixpoint cutoff changes results; 0 (unlimited, the default) is
	// not written so pre-SolverOptions digests stay valid. BDD sizing
	// is deliberately absent — it cannot change results.
	if o.Solver.MaxRounds != 0 {
		fmt.Fprintf(h, "max_rounds=%d\n", o.Solver.MaxRounds)
	}
	// Same back-compat shape for the newer throttles: written only
	// when non-default, so existing digests stay valid. Clone and
	// kcfa policies are fully determined by the KCFA field above;
	// only origin carries new information.
	if o.Solver.PtsLimit != 0 {
		fmt.Fprintf(h, "pts_limit=%d\n", o.Solver.PtsLimit)
	}
	if o.ContextPolicy == PolicyOrigin {
		fmt.Fprintf(h, "policy=%s\n", o.ContextPolicy)
	}
	if o.ImplicitSpecs == nil {
		io.WriteString(h, "implicit=default\n")
	} else {
		specs := make([]string, 0, len(o.ImplicitSpecs))
		for _, s := range o.ImplicitSpecs {
			specs = append(specs, fmt.Sprintf("%s:%d", s.Fn, s.EntryArg))
		}
		sort.Strings(specs)
		fmt.Fprintf(h, "implicit=%q\n", specs)
	}
	hashAPI(h, o.API)
	return hex.EncodeToString(h.Sum(nil))
}

// hashAPI writes a canonical rendering of a region API into the hash.
func hashAPI(w io.Writer, api *RegionAPI) {
	fmt.Fprintf(w, "api=%q\n", api.Name)
	names := make([]string, 0, len(api.Create))
	for name := range api.Create {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := api.Create[name]
		fmt.Fprintf(w, "create %s parent=%d out=%d\n", name, spec.ParentArg, spec.OutArg)
	}
	names = names[:0]
	for name := range api.Alloc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "alloc %s region=%d\n", name, api.Alloc[name].RegionArg)
	}
	names = names[:0]
	for name := range api.Delete {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "delete %s\n", name)
	}
}
