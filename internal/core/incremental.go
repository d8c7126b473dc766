package core

import (
	"context"

	"repro/internal/cminor"
)

// FrontEndStats counts per-file front-end work: how much of the parse,
// check, and lower phases a run took from its base analysis versus
// recomputed. A run without a base recomputes everything.
type FrontEndStats struct {
	// ParseReused counts files whose parsed AST was taken from the
	// base (content unchanged); ParseParsed counts files parsed.
	ParseReused, ParseParsed int
	// CheckReused counts files whose declarations and bodies were not
	// re-checked; CheckChecked counts files the checker visited. A full
	// fallback check counts every file as checked.
	CheckReused, CheckChecked int
	// LowerReused counts files whose IR fragment was relinked from the
	// base; LowerLowered counts files lowered.
	LowerReused, LowerLowered int
}

// Apply materializes the source set a delta against a describes: a's
// sources with removed paths dropped and changed paths overwritten or
// added. a itself is not modified.
func (a *Analysis) Apply(changed map[string]string, removed []string) map[string]string {
	out := make(map[string]string, len(a.Sources)+len(changed))
	for p, src := range a.Sources {
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

// AnalyzeIncremental re-analyzes base's program after an edit.
// sources is the edited program's whole source set, which callers
// materialize with base.Apply(changed, removed); it is not copied.
// Front-end work is reused per file — unchanged files skip parse,
// check, and lower entirely when every changed file keeps its text
// outside function bodies and whole added or removed function
// definitions (cminor.SameDecls, see incrementalEdits); any other edit
// falls back to a full re-check while still reusing unchanged parses. The
// back half (contexts through post) always re-solves, so the resulting
// report is byte-identical to a from-scratch run over the same
// sources. opts must fingerprint-equal base's options.
//
// base is only read, so one base can serve concurrent deltas, and the
// returned analysis keeps no pointer to it: a chain of deltas retains
// only the files, checker objects and IR fragments it still shares.
func AnalyzeIncremental(ctx context.Context, opts Options, base *Analysis, sources map[string]string) (*Analysis, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	if opts.Fingerprint() != base.Opts.Fingerprint() {
		return nil, Errf(ErrConfig, "",
			"delta request options do not match the base analysis's")
	}
	if len(sources) == 0 {
		return nil, Errf(ErrConfig, "", "delta request removes every source file")
	}
	a := newAnalysis(opts)
	a.Sources = sources
	a.base = base
	defer func() { a.base, a.baseIndex, a.changed = nil, nil, nil }()
	return runPhases(ctx, a, phases)
}

// reusedFile returns the base's parsed file at path p when p's content
// is unchanged. Sources a delta materializes share the base's strings,
// so the comparison returns on a pointer check in the common case.
func (a *Analysis) reusedFile(p string) (*cminor.File, bool) {
	src, ok := a.base.Sources[p]
	i, parsed := a.baseIndex[p]
	if !ok || !parsed || src != a.Sources[p] {
		return nil, false
	}
	return a.base.Files[i], true
}

// incrementalEdits decides whether the check phase may reuse the
// base's declaration environment and re-check only changed files, and
// returns what cminor.CheckIncremental needs to do so: each changed
// file's added and removed function definitions. The conditions (see
// DESIGN.md "Incremental analysis"): a base exists and declared no
// implicit functions, the path set is unchanged, every changed file
// passes cminor.SameDecls against its base version — the same text
// outside function bodies and whole added or removed definitions, and
// no type defined inside a body or initializer — no added name is
// declared anywhere in the base or added twice, and no removed name
// still occurs in any source.
func (a *Analysis) incrementalEdits() (map[string]cminor.DeclEdit, bool) {
	b := a.base
	if b == nil || len(a.Files) != len(b.Files) || cminor.HasImplicitFuncs(b.Info) {
		return nil, false
	}
	edits := make(map[string]cminor.DeclEdit, len(a.changed))
	added := make(map[string]bool)
	var removed []string
	for _, f := range a.Files {
		i, ok := a.baseIndex[f.Path]
		if !ok {
			return nil, false // added path (same count ⇒ set differs)
		}
		if !a.changed[f.Path] {
			continue
		}
		e, ok := cminor.SameDecls(b.Files[i], b.Sources[f.Path], f, a.Sources[f.Path])
		if !ok {
			return nil, false
		}
		for _, fd := range e.Added {
			if b.Info.Declares(fd.Name) || added[fd.Name] {
				return nil, false
			}
			added[fd.Name] = true
		}
		removed = append(removed, e.Removed...)
		edits[f.Path] = e
	}
	for _, name := range removed {
		for _, src := range a.Sources {
			if cminor.HasIdent(src, name) {
				return nil, false
			}
		}
	}
	return edits, true
}
