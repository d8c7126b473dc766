// Package regionwiz finds region lifetime inconsistencies in C
// programs that use region-based memory management, reproducing
// "Conditional Correlation Analysis for Safe Region-based Memory
// Management" (Wang et al., PLDI 2008).
//
// A program using regions must place objects so that a region holding
// pointers into another region is always deleted first. RegionWiz
// verifies this statically: it runs a context-sensitive,
// field-sensitive pointer analysis with heap cloning, extracts the
// subregion, ownership, and access relations, and checks the
// conditional correlation ⟨p⁺, φ⁼, σ̄*⟩ — for every pair of regions
// with no subregion partial order, no object in the first may access
// an object in the second.
//
// Quick start:
//
//	report, err := regionwiz.AnalyzeSource(regionwiz.Options{}, map[string]string{
//	    "server.c": src,
//	})
//	if err != nil { ... }
//	fmt.Print(report)
//
// The analyzer accepts both region interfaces from the paper — RC
// regions (rnew/ralloc) and APR pools (apr_pool_create/apr_palloc) —
// and both can be mixed. See the examples directory for runnable
// scenarios and package repro/regions for a runnable region runtime.
//
// For repeated analysis over evolving sources, the Analyzer handle
// (New) keeps a content-addressed result cache and a bounded worker
// pool between calls; the regionwizd command serves the same engine
// over HTTP.
package regionwiz

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/callgraph"
	"repro/internal/core"
)

// Options configures an analysis; the zero value is ready to use
// (entry "main", both region APIs, context cap 4096, heap cloning on,
// explicit backend).
type Options = core.Options

// SolverOptions groups the solve-strategy knobs (Options.Solver):
// fixpoint round bound, points-to cap, backend, and BDD kernel sizing.
type SolverOptions = core.SolverOptions

// Backend selects the relation engine for the inconsistency
// computation.
type Backend = core.Backend

// Backend values.
const (
	// ExplicitBackend solves the pair computation with hash-set
	// relations.
	ExplicitBackend = core.ExplicitBackend
	// BDDBackend stores relations in binary decision diagrams and
	// solves the paper's Datalog rules, as the original prototype did
	// with bddbddb/BuDDy.
	BDDBackend = core.BDDBackend
)

// RegionAPI describes one region-based memory management interface.
type RegionAPI = core.RegionAPI

// APRPools returns the Apache Portable Runtime pools interface
// (the paper's Figure 6).
func APRPools() *RegionAPI { return core.APRPools() }

// RCRegions returns the RC-regions interface (rnew/ralloc).
func RCRegions() *RegionAPI { return core.RCRegions() }

// MergeAPIs combines several interfaces.
func MergeAPIs(apis ...*RegionAPI) *RegionAPI { return core.MergeAPIs(apis...) }

// ImplicitSpec registers a runtime function whose argument is invoked
// implicitly (thread entry points, cleanup callbacks).
type ImplicitSpec = callgraph.ImplicitSpec

// Report is the analysis outcome: ranked warnings plus the
// quantitative stats of the paper's Figure 11.
type Report = core.Report

// Warning is one reported potential dangling pointer.
type Warning = core.Warning

// Stats carries the quantitative columns (analysis time, region and
// object counts, relation sizes, pair counts) plus the per-phase
// pipeline breakdown.
type Stats = core.Stats

// PhaseStat is one pipeline phase's cost: wall time, allocation
// delta, and output-relation sizes.
type PhaseStat = core.PhaseStat

// Analysis exposes the full pipeline state for programmatic consumers
// (region tree, ownership, access edges, the conditional correlation).
type Analysis = core.Analysis

// Bool is a helper for Options.HeapCloning.
func Bool(b bool) *bool { return core.Bool(b) }

// Error is the typed failure every exported entry point returns: a
// kind (parse, resolve, config, overload, internal), the source
// position when known, and the wrapped cause when there is one.
// Branch on it with errors.As, or with errors.Is against a kind-only
// sentinel:
//
//	var aerr *regionwiz.Error
//	if errors.As(err, &aerr) && aerr.Kind == regionwiz.ErrOverload { ... }
//	if errors.Is(err, &regionwiz.Error{Kind: regionwiz.ErrOverload}) { ... }
//
// Message text matches the untyped errors of earlier releases.
type Error = core.Error

// ErrorKind classifies an Error.
type ErrorKind = core.ErrorKind

// Error kinds.
const (
	// ErrInternal is an unexpected analyzer failure, including context
	// cancellation (which stays reachable through errors.Is).
	ErrInternal = core.ErrInternal
	// ErrParse is a front-end (lex/parse/typecheck) rejection.
	ErrParse = core.ErrParse
	// ErrResolve means a named analysis root does not exist.
	ErrResolve = core.ErrResolve
	// ErrConfig is an invalid Options value or request shape.
	ErrConfig = core.ErrConfig
	// ErrOverload is an admission-control rejection from an Analyzer
	// or regionwizd under load.
	ErrOverload = core.ErrOverload
	// ErrSnapshotGone means a delta request named a base snapshot the
	// service no longer holds (evicted or never computed); retrying
	// with full sources succeeds.
	ErrSnapshotGone = core.ErrSnapshotGone
)

// ReportSchemaV1 identifies the report JSON encoding emitted by
// Report.MarshalJSON and the regionwizd /v1/analyze endpoint.
const ReportSchemaV1 = core.ReportSchemaV1

// ExplainSchemaV1 identifies the explanation (why-provenance) JSON
// encoding produced by MarshalExplanations, regionwiz -explain -json,
// and the regionwizd /v1/explain endpoint.
const ExplainSchemaV1 = core.ExplainSchemaV1

// Explainer answers why-provenance queries against one finished
// analysis: build one with Analysis.Explainer, then Explain a 1-based
// warning id or ExplainAll. Trees are read off the run's region tree,
// ownership and access edges (no solver runs), and are byte-identical
// on both backends.
type Explainer = core.Explainer

// Explanation is one warning's derivation tree, from the reported
// instruction pair back to base facts with source positions.
type Explanation = core.Explanation

// ExplainNode is one node of an explanation tree: a derived fact with
// the rule that fired and its premises, a negated premise with the
// facts justifying the absence, or a base-fact leaf with its source
// position.
type ExplainNode = core.ExplainNode

// MarshalExplanations renders explanations as the versioned JSON
// document (schema "regionwiz/explain/v1") the -explain -json flag and
// /v1/explain emit.
func MarshalExplanations(exps []*Explanation) ([]byte, error) {
	return core.MarshalExplanations(exps)
}

// QuerySchemaV1 identifies the pair-query JSON encoding produced by
// regionwiz -query and the regionwizd /v1/query endpoint.
const QuerySchemaV1 = core.QuerySchemaV1

// PairAnswer is the verdict of one pair query (Analysis.QueryPair on a
// finished analysis): whether objects allocated at one site may hold
// pointers into objects allocated at another across regions with no
// subregion order. The verdict agrees with the analysis's report for
// the same site pair.
type PairAnswer = core.PairAnswer

// AnalyzeSource analyzes CMinor/C-subset sources given as
// path -> content pairs and returns the full analysis state.
func AnalyzeSource(opts Options, sources map[string]string) (*Analysis, error) {
	return core.AnalyzeSource(opts, sources)
}

// AnalyzeSourceContext is AnalyzeSource under a context: the pipeline
// checks ctx between phases and aborts with ctx.Err() when it is
// cancelled or past its deadline.
func AnalyzeSourceContext(ctx context.Context, opts Options, sources map[string]string) (*Analysis, error) {
	return core.AnalyzeSourceContext(ctx, opts, sources)
}

// Analyze is AnalyzeSource returning just the report.
func Analyze(opts Options, sources map[string]string) (*Report, error) {
	a, err := core.AnalyzeSource(opts, sources)
	if err != nil {
		return nil, err
	}
	return a.Report, nil
}

// AnalyzeFiles reads the given files from disk and analyzes them as
// one program.
func AnalyzeFiles(opts Options, paths ...string) (*Analysis, error) {
	return AnalyzeFilesContext(context.Background(), opts, paths...)
}

// AnalyzeFilesContext is AnalyzeFiles under a context (see
// AnalyzeSourceContext). Two paths that clean to the same file are an
// ErrConfig error — one source silently overwriting the other never
// is what the caller meant.
func AnalyzeFilesContext(ctx context.Context, opts Options, paths ...string) (*Analysis, error) {
	sources, err := readSourceFiles(paths)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeSourceContext(ctx, opts, sources)
}

// readSourceFiles loads path->content pairs for analysis, rejecting
// paths that collide after filepath.Clean and typing read failures.
func readSourceFiles(paths []string) (map[string]string, error) {
	sources := make(map[string]string, len(paths))
	for _, p := range paths {
		clean := filepath.Clean(p)
		if _, dup := sources[clean]; dup {
			return nil, core.Errf(core.ErrConfig, "", "duplicate source path %q (cleans to %q)", p, clean)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, core.WrapError(core.ErrConfig, err)
		}
		sources[clean] = string(b)
	}
	return sources, nil
}
