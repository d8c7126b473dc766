package service

import "repro/internal/core"

// DeltaSchemaV1 identifies the delta request/response encoding
// (Request.Base/Changed/Removed and the response's "delta" block).
const DeltaSchemaV1 = "regionwiz/delta/v1"

// Request is the POST /v1/analyze body. It comes in two shapes: a
// full request carries Sources; a delta request (schema
// "regionwiz/delta/v1") instead names a Base — the key of any prior
// response — plus the files Changed (path -> new content, including
// added files) and Removed since that run. The two shapes are
// mutually exclusive.
type Request struct {
	// Sources maps path -> CMinor/C-subset content.
	Sources map[string]string `json:"sources,omitempty"`
	// Base is the response key of a prior run whose sources this
	// delta applies to. If that result is no longer in the daemon's
	// result cache the request fails with kind "snapshot_gone" (HTTP
	// 409); resend the full sources.
	Base string `json:"base,omitempty"`
	// Changed maps path -> full new content for edited or added files.
	Changed map[string]string `json:"changed,omitempty"`
	// Removed lists paths deleted since the base run.
	Removed []string `json:"removed,omitempty"`
	// Options selects the analysis configuration; the zero value is
	// the default analysis (entry "main", both region APIs).
	Options RequestOptions `json:"options"`
	// Trace, when true, records a per-request trace and returns it in
	// AnalyzeResponse.Trace (Chrome trace_event JSON, schema
	// "regionwiz/trace/v1"). Tracing never changes the report, so it
	// deliberately lives outside Options and the cache key — but note
	// a cache hit or coalesced request has no pipeline to trace and
	// returns only the request-level spans.
	Trace bool `json:"trace,omitempty"`
}

// RequestOptions is the JSON shape of regionwiz Options — the subset
// that travels over the wire (observers and custom API tables do
// not).
type RequestOptions struct {
	// Entry is the program entry function (default "main").
	Entry string `json:"entry,omitempty"`
	// API selects the region interface: "apr", "rc", or "both"
	// (default "both").
	API string `json:"api,omitempty"`
	// ContextCap bounds per-function context counts (default 4096).
	ContextCap uint64 `json:"context_cap,omitempty"`
	// HeapCloning toggles heap cloning (default true).
	HeapCloning *bool `json:"heap_cloning,omitempty"`
	// Backend selects the pair engine: "explicit" or "bdd"
	// (default "explicit").
	Backend string `json:"backend,omitempty"`
	// KCFA switches to k-CFA call strings of this depth (0 keeps
	// call-path numbering).
	KCFA int `json:"kcfa,omitempty"`
	// ContextPolicy names the context-numbering policy: "clone" (full
	// call-path cloning, the default), "kcfa" (requires kcfa > 0), or
	// "origin" (allocation-site origin sensitivity). Origin changes
	// results and is part of the cache key. Options.Validate checks
	// the spelling.
	ContextPolicy string `json:"context_policy,omitempty"`
	// Entries, when present, analyzes an open program with the listed
	// roots (empty list = every defined function).
	Entries []string `json:"entries,omitempty"`
	// Refine enables the def-use (Figure 5(b)) refinement.
	Refine bool `json:"refine,omitempty"`
	// ExtraAllocFns adds malloc-style allocator names.
	ExtraAllocFns []string `json:"extra_alloc_fns,omitempty"`
	// PtsLimit caps each variable's points-to set (0 = unlimited);
	// overflow collapses to a tainted ⊤ object and the report is
	// marked throttled. A nonzero cap changes results and is part of
	// the cache key.
	PtsLimit int `json:"pts_limit,omitempty"`
}

// ToOptions converts the wire form to core Options, rejecting an
// unknown api or backend spelling with a config-kind error.
func (ro RequestOptions) ToOptions() (core.Options, error) {
	opts := core.Options{
		Entry:            ro.Entry,
		ContextCap:       ro.ContextCap,
		HeapCloning:      ro.HeapCloning,
		KCFA:             ro.KCFA,
		ContextPolicy:    ro.ContextPolicy,
		Entries:          ro.Entries,
		DefUseRefinement: ro.Refine,
		ExtraAllocFns:    ro.ExtraAllocFns,
		Solver:           core.SolverOptions{PtsLimit: ro.PtsLimit},
	}
	switch ro.API {
	case "", "both":
		// Normalize fills the merged default.
	case "apr":
		opts.API = core.APRPools()
	case "rc":
		opts.API = core.RCRegions()
	default:
		return core.Options{}, core.Errf(core.ErrConfig, "", "options: unknown api %q (want apr, rc, or both)", ro.API)
	}
	switch ro.Backend {
	case "", "explicit":
		opts.Solver.Backend = core.ExplicitBackend
	case "bdd":
		opts.Solver.Backend = core.BDDBackend
	default:
		return core.Options{}, core.Errf(core.ErrConfig, "", "options: unknown backend %q (want explicit or bdd)", ro.Backend)
	}
	return opts, nil
}
