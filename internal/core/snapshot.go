package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/cminor"
	"repro/internal/ir"
)

// FileDigest returns the hex sha256 of one source file's content — the
// per-file half of the request digest (service.Digest) and the key
// snapshots use to decide whether a file changed.
func FileDigest(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// FrontEndStats counts per-file front-end work: how much of the parse,
// check, and lower phases a snapshot-backed run reused from its base
// versus recomputed. A plain AnalyzeSource leaves it zero.
type FrontEndStats struct {
	// ParseReused counts files whose parsed AST was taken from the base
	// snapshot (digest unchanged); ParseParsed counts files parsed.
	ParseReused, ParseParsed int
	// CheckReused counts files whose declarations and bodies were not
	// re-checked; CheckChecked counts files the checker visited. A full
	// fallback check counts every file as checked.
	CheckReused, CheckChecked int
	// LowerReused counts files whose IR fragment was relinked from the
	// base snapshot; LowerLowered counts files lowered.
	LowerReused, LowerLowered int
	// CallGraphDirect reports that the call graph was rebuilt with the
	// linear direct-call scan instead of the full vF fixpoint.
	CallGraphDirect bool
}

// Snapshot is the reusable front-end state of one successful
// snapshot-backed run: parsed files, their declaration signatures, and
// lowered IR fragments, keyed by per-file content digest. Snapshots
// are immutable — an incremental run reads its base and builds a new
// snapshot — so one base can serve concurrent deltas.
type Snapshot struct {
	opts     Options // normalized
	fp       string  // opts.Fingerprint() at build time
	sources  map[string]string
	paths    []string // sorted
	digests  map[string]string
	files    map[string]*cminor.File
	sigs     map[string]string // cminor.DeclSignature per file
	bodyDefs map[string]bool   // cminor.HasBodyTypeDefs per file
	frags    map[string]*ir.Fragment
	info     *cminor.Info
	// hasImplicit disqualifies the snapshot as an incremental-check
	// base: implicitly declared functions mean the checker mutated
	// state across file boundaries in ways signatures do not capture.
	hasImplicit bool
}

// Options returns the options the snapshot was built under.
func (s *Snapshot) Options() Options { return s.opts }

// Apply materializes the source set a delta request describes: the
// snapshot's sources with changed paths overwritten or added and
// removed paths dropped. The snapshot itself is not modified.
func (s *Snapshot) Apply(changed map[string]string, removed []string) map[string]string {
	out := make(map[string]string, len(s.sources)+len(changed))
	for p, src := range s.sources {
		out[p] = src
	}
	for _, p := range removed {
		delete(out, p)
	}
	for p, src := range changed {
		out[p] = src
	}
	return out
}

// AnalyzeSourceSnapshot is AnalyzeSourceContext plus a snapshot of the
// run's reusable front-end state, for handing to AnalyzeIncremental
// later. The run also populates Analysis.Front and emits the
// front-end reuse counters into the report's phase stats.
func AnalyzeSourceSnapshot(ctx context.Context, opts Options, sources map[string]string) (*Analysis, *Snapshot, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, nil, err
	}
	a := newAnalysis(opts)
	a.Sources = sources
	a.snapshotting = true
	a, err = runPhases(ctx, a, phases)
	if err != nil {
		return nil, nil, err
	}
	return a, a.buildSnapshot(), nil
}

// AnalyzeIncremental re-analyzes a snapshot's program after an edit:
// changed maps paths to new content (edits and additions), removed
// lists deleted paths. Front-end work is reused per file — unchanged
// files skip parse, check, and lower entirely when the edit preserves
// every declaration signature; any signature change falls back to a
// full re-check while still reusing unchanged parses. The back half
// (contexts through post) always re-solves, so the resulting report is
// byte-identical to a from-scratch run over the same sources. opts
// must fingerprint-equal the snapshot's options.
func AnalyzeIncremental(ctx context.Context, opts Options, base *Snapshot, changed map[string]string, removed []string) (*Analysis, *Snapshot, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, nil, err
	}
	if opts.Fingerprint() != base.fp {
		return nil, nil, Errf(ErrConfig, "",
			"delta request options do not match the base snapshot's")
	}
	sources := base.Apply(changed, removed)
	if len(sources) == 0 {
		return nil, nil, Errf(ErrConfig, "", "delta request removes every source file")
	}
	a := newAnalysis(opts)
	a.Sources = sources
	a.snapshotting = true
	a.prev = base
	a, err = runPhases(ctx, a, phases)
	if err != nil {
		return nil, nil, err
	}
	return a, a.buildSnapshot(), nil
}

// tryIncrementalCheck decides whether the check phase may reuse the
// base snapshot's declaration environment and re-check only changed
// files. The conditions (see DESIGN.md "Incremental analysis &
// snapshots"): a base exists and declared no implicit functions, the
// path set is unchanged, every changed file keeps its declaration
// signature byte-for-byte, and neither the old nor the new version of
// a changed file defines types inside function bodies or initializers
// (re-resolving such a definition against the already-laid-out
// environment would be a spurious redefinition).
func (a *Analysis) tryIncrementalCheck() bool {
	prev := a.prev
	if prev == nil || prev.hasImplicit {
		return false
	}
	if len(a.Files) != len(prev.paths) {
		return false
	}
	a.declSigs = make(map[string]string)
	a.bodyDefs = make(map[string]bool)
	for _, f := range a.Files {
		if _, ok := prev.files[f.Path]; !ok {
			return false // added path (same count ⇒ set differs)
		}
		if !a.changed[f.Path] {
			continue
		}
		sig := cminor.DeclSignature(f)
		a.declSigs[f.Path] = sig
		if sig != prev.sigs[f.Path] {
			return false
		}
		bd := cminor.HasBodyTypeDefs(f)
		a.bodyDefs[f.Path] = bd
		if bd || prev.bodyDefs[f.Path] {
			return false
		}
	}
	return true
}

// buildSnapshot captures the run's reusable front-end state. Called
// only after a fully successful run, so every snapshot is error-free
// by construction. Signatures and fragment/file tables are inherited
// from the base for unchanged files and computed fresh for the rest.
func (a *Analysis) buildSnapshot() *Snapshot {
	s := &Snapshot{
		opts:        a.Opts,
		fp:          a.Opts.Fingerprint(),
		sources:     a.Sources,
		digests:     a.digests,
		files:       make(map[string]*cminor.File, len(a.Files)),
		sigs:        make(map[string]string, len(a.Files)),
		bodyDefs:    make(map[string]bool, len(a.Files)),
		frags:       a.fragments,
		info:        a.Info,
		hasImplicit: cminor.HasImplicitFuncs(a.Info),
	}
	for _, f := range a.Files {
		p := f.Path
		s.paths = append(s.paths, p)
		s.files[p] = f
		if a.prev != nil && !a.changed[p] {
			s.sigs[p] = a.prev.sigs[p]
			s.bodyDefs[p] = a.prev.bodyDefs[p]
			continue
		}
		if sig, ok := a.declSigs[p]; ok {
			s.sigs[p] = sig
		} else {
			s.sigs[p] = cminor.DeclSignature(f)
		}
		if bd, ok := a.bodyDefs[p]; ok {
			s.bodyDefs[p] = bd
		} else {
			s.bodyDefs[p] = cminor.HasBodyTypeDefs(f)
		}
	}
	sort.Strings(s.paths)
	return s
}
