package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/ir"
	"repro/internal/trace"
)

// ExplainSchemaV1 identifies the explanation JSON encoding. Consumers
// should check it before decoding; additive changes keep the v1 name,
// incompatible ones bump it.
const ExplainSchemaV1 = "regionwiz/explain/v1"

// Explanation is the why-provenance of one warning: the derivation
// tree from the warning's objectPair fact down to base facts with
// source positions. Explanations are deterministic — the same warning
// produces the same bytes run to run and on both solver backends (the recorded and replayed paths build
// identical trees) — so they deliberately carry no timing, backend, or
// replay accounting.
type Explanation struct {
	Schema string `json:"schema"`
	// Warning is the 1-based index of the warning in the report's
	// deterministic order (the number the CLI prints).
	Warning int          `json:"warning"`
	High    bool         `json:"high"`
	Message string       `json:"message"`
	Tree    *ExplainNode `json:"tree"`
}

// ExplainNode is one node of a derivation tree. Kind is "derived" (a
// rule fired; Rule holds its text, Children its ground premises),
// "base" (a loaded fact; Pos holds the source position it came from),
// or "negated" (a stratified-negation premise; Children justify the
// absence by deriving everything the negated relation does hold for
// the bound arguments). Children are in rule-premise order for derived
// nodes and value-sorted for negated nodes.
type ExplainNode struct {
	Kind     string         `json:"kind"`
	Fact     string         `json:"fact"`
	Rule     string         `json:"rule,omitempty"`
	Pos      string         `json:"pos,omitempty"`
	Note     string         `json:"note,omitempty"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// ruleText maps a rule's Name() to the paper's full Datalog rendering
// (Section 5.3.2) — the rule text explanation nodes carry.
var ruleText = map[string]string{
	"leq:-region":                           "leq(x,x) :- region(x).",
	"leq:-parent":                           "leq(x,y) :- parent(x,y).",
	"leq:-leq,parent":                       "leq(x,z) :- leq(x,y), parent(y,z).",
	"regionPair:-region,region,!leq":        "regionPair(x,y) :- region(x), region(y), !leq(x,y).",
	"objectPair:-regionPair,own,own,access": "objectPair(o1,n,o2) :- regionPair(x,y), own(x,o1), own(y,o2), access(o1,n,o2).",
}

// regionLeqRules builds stratum 1, the subregion closure. The same
// values drive the BDD solve, the provenance recorder, and the replay
// engine, so all three derive identical tuples.
func regionLeqRules(rr regionRels) []*datalog.Rule {
	return []*datalog.Rule{
		datalog.NewRule(datalog.T(rr.leq, "x", "x"), datalog.T(rr.region, "x")),
		datalog.NewRule(datalog.T(rr.leq, "x", "y"), datalog.T(rr.parent, "x", "y")),
		datalog.NewRule(datalog.T(rr.leq, "x", "z"), datalog.T(rr.leq, "x", "y"), datalog.T(rr.parent, "y", "z")),
	}
}

// regionPairRules builds stratum 2, the stratified complement.
func regionPairRules(rr regionRels) []*datalog.Rule {
	return []*datalog.Rule{
		datalog.NewRule(datalog.T(rr.regionPair, "x", "y"),
			datalog.T(rr.region, "x"), datalog.T(rr.region, "y"), datalog.N(rr.leq, "x", "y")),
	}
}

// objectPairRule builds stratum 3, the verification join.
func objectPairRule(or objectRels) *datalog.Rule {
	return datalog.NewRule(datalog.T(or.objectPair, "o1", "n", "o2"),
		datalog.T(or.regionPair, "x", "y"),
		datalog.T(or.own, "x", "o1"),
		datalog.T(or.own, "y", "o2"),
		datalog.T(or.access, "o1", "n", "o2"))
}

// provRecord is the provenance recorder's output: the region strata
// solved on the explicit tuple engine with per-tuple witnesses. It is
// captured during the pairs phase when Options.Provenance is set on an
// explicit-backend run, and reused verbatim by every Explain call.
type provRecord struct {
	program *datalog.Program
	engine  *datalog.Explicit
	rels    regionRels
}

// recordProvenance solves the region strata on the witness-recording
// explicit engine. It runs after the pair computation and writes only
// a.prov — the pairs, the report, and every phase metric are untouched,
// which is what keeps reports byte-identical with provenance on or off.
func (a *Analysis) recordProvenance(ctx context.Context) {
	_, sp := trace.StartSpan(ctx, "explain.record")
	a.prov = a.solveRegionProvenance()
	if sp != nil {
		sp.End(
			trace.Int("leq_tuples", a.prov.engine.Count(a.prov.rels.leq)),
			trace.Int("region_pair_tuples", a.prov.engine.Count(a.prov.rels.regionPair)))
	}
}

// solveRegionProvenance builds and solves the region strata on a fresh
// explicit engine. Region and parent facts are loaded in full — the
// leq stratum's witnesses depend on evaluation order, so recorded and
// replayed engines must start from identical facts to produce
// identical trees (TestExplainBackendParity pins this).
func (a *Analysis) solveRegionProvenance() *provRecord {
	p := datalog.NewProgram()
	rr := a.declareRegionRels(p)
	e := datalog.NewExplicit(p)
	for i := range a.Regions {
		e.Add(rr.region, uint64(i))
		if i != RootRegion {
			e.Add(rr.parent, uint64(i), uint64(a.Regions[i].Parent))
		}
	}
	e.SolveSemiNaive(regionLeqRules(rr), 0)
	e.Solve(regionPairRules(rr), 0)
	return &provRecord{program: p, engine: e, rels: rr}
}

// Explainer answers why-provenance queries against one finished
// analysis. Build one with Analysis.Explainer and reuse it across
// warnings: the region strata are solved once (or taken from the pairs
// phase's recorder) and only the per-warning object-level cone is
// derived per query. An Explainer is read-only over the analysis and
// safe for concurrent Explain calls.
type Explainer struct {
	a    *Analysis
	prov *provRecord
	// Replayed reports that the region strata were re-derived on
	// demand (the BDD-backend / cached-result path) rather than taken
	// from the pairs phase's recorder. Accounting only: the resulting
	// explanations are byte-identical either way.
	Replayed bool
}

// Explainer builds the explanation engine for this run's report. When
// the pairs phase recorded provenance (Options.Provenance on the
// explicit backend) the recorded witnesses are reused; otherwise —
// BDD-backend runs, cached results, provenance off — the region strata
// are replayed on the explicit engine under an "explain.replay" trace
// span.
func (a *Analysis) Explainer(ctx context.Context) (*Explainer, error) {
	if a.Report == nil {
		return nil, Errf(ErrInternal, "", "explain: analysis has no report")
	}
	if a.prov != nil {
		return &Explainer{a: a, prov: a.prov}, nil
	}
	_, sp := trace.StartSpan(ctx, "explain.replay")
	prov := a.solveRegionProvenance()
	if sp != nil {
		sp.End(
			trace.Int("regions", len(a.Regions)),
			trace.Int("leq_tuples", prov.engine.Count(prov.rels.leq)))
	}
	return &Explainer{a: a, prov: prov, Replayed: true}, nil
}

// Explain explains one warning by its 1-based report index.
func (ex *Explainer) Explain(ctx context.Context, warning int) (*Explanation, error) {
	a := ex.a
	if warning < 1 || warning > len(a.Report.Warnings) {
		return nil, Errf(ErrConfig, "", "explain: warning %d out of range (report has %d)",
			warning, len(a.Report.Warnings))
	}
	_, sp := trace.StartSpan(ctx, "explain.tree")
	w := a.Report.Warnings[warning-1]
	pair := w.IPair.Example
	if err := ex.verifyPair(pair); err != nil {
		if sp != nil {
			sp.End(trace.Int("warning", warning), trace.Bool("verified", false))
		}
		return nil, err
	}
	tree := ex.buildTree(pair, w.IPair.Off)
	if sp != nil {
		sp.End(trace.Int("warning", warning), trace.Bool("verified", true))
	}
	return &Explanation{
		Schema:  ExplainSchemaV1,
		Warning: warning,
		High:    w.High(),
		Message: w.Message,
		Tree:    tree,
	}, nil
}

// ExplainAll explains every warning in report order.
func (ex *Explainer) ExplainAll(ctx context.Context) ([]*Explanation, error) {
	out := make([]*Explanation, 0, len(ex.a.Report.Warnings))
	for i := 1; i <= len(ex.a.Report.Warnings); i++ {
		e, err := ex.Explain(ctx, i)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// verifyPair re-derives the warning's objectPair fact on a per-query
// engine: regionPair restricted to the pair's owner regions (read out
// of the solved region strata), ownership restricted to the two
// objects (mirroring loadObjectRels, including root ownership of
// unowned targets via ownersOf), and the single queried access edge.
// A warning whose fact does not re-derive means the replayed verdict
// diverged from the report — an internal error, surfaced rather than
// papered over.
func (ex *Explainer) verifyPair(p ObjectPair) error {
	a := ex.a
	x, y := uint64(p.Evidence[0]), uint64(p.Evidence[1])
	if !ex.prov.engine.Has(ex.prov.rels.regionPair, x, y) {
		return Errf(ErrInternal, "", "explain: replay diverged: evidence regionPair(%d,%d) not derivable", x, y)
	}
	op := datalog.NewProgram()
	R := op.Domain("R", uint64(len(a.Regions)))
	O := op.Domain("O", uint64(len(a.Ptr.Objects)))
	N := op.Domain("N", 1)
	or := objectRels{
		regionPair: op.Relation("regionPair", R.At(0), R.At(1)),
		own:        op.Relation("own", R.At(0), O.At(0)),
		access:     op.Relation("access", O.At(0), N.At(0), O.At(1)),
		objectPair: op.Relation("objectPair", O.At(0), N.At(0), O.At(1)),
	}
	oe := datalog.NewExplicit(op)
	srcOwners := a.ownersOf(p.Src)
	dstOwners := a.ownersOf(p.Dst)
	for _, rx := range srcOwners {
		for _, ry := range dstOwners {
			if ex.prov.engine.Has(ex.prov.rels.regionPair, uint64(rx), uint64(ry)) {
				oe.Add(or.regionPair, uint64(rx), uint64(ry))
			}
		}
	}
	for _, rx := range srcOwners {
		oe.Add(or.own, uint64(rx), uint64(p.Src))
	}
	for _, ry := range dstOwners {
		oe.Add(or.own, uint64(ry), uint64(p.Dst))
	}
	oe.Add(or.access, uint64(p.Src), 0, uint64(p.Dst))
	oe.Solve([]*datalog.Rule{objectPairRule(or)}, 0)
	if !oe.Has(or.objectPair, uint64(p.Src), 0, uint64(p.Dst)) {
		return Errf(ErrInternal, "", "explain: replay diverged: objectPair(%d,%d) not re-derivable from its cone",
			p.Src, p.Dst)
	}
	return nil
}

// buildTree assembles the derivation tree of one object pair. The
// objectPair node is instantiated at the report's evidence region pair
// (the pair checkEdge ranked the warning on), so the tree explains the
// exact warning text the user saw.
func (ex *Explainer) buildTree(p ObjectPair, off int64) *ExplainNode {
	a := ex.a
	x, y := p.Evidence[0], p.Evidence[1]
	root := &ExplainNode{
		Kind: "derived",
		Fact: fmt.Sprintf("objectPair(%d,%d,%d)", p.Src, off, p.Dst),
		Rule: ruleText["objectPair:-regionPair,own,own,access"],
		Note: fmt.Sprintf("object %s may hold a pointer into %s across unrelated regions",
			a.objPos(p.Src), a.objPos(p.Dst)),
	}
	root.Children = []*ExplainNode{
		ex.regionPairNode(x, y),
		ex.ownNode(x, p.Src),
		ex.ownNode(y, p.Dst),
		ex.accessNode(p.Src, off, p.Dst),
	}
	return root
}

// regionPairNode explains regionPair(x,y): both are regions and x has
// no subregion order with y.
func (ex *Explainer) regionPairNode(x, y int) *ExplainNode {
	a := ex.a
	n := &ExplainNode{
		Kind: "derived",
		Fact: fmt.Sprintf("regionPair(%d,%d)", x, y),
		Rule: ruleText["regionPair:-region,region,!leq"],
		Note: fmt.Sprintf("%s has no subregion order with %s", a.regionDesc(x), a.regionDesc(y)),
	}
	n.Children = []*ExplainNode{
		ex.regionBase(x),
		ex.regionBase(y),
		ex.negLeqNode(x, y),
	}
	return n
}

// negLeqNode justifies !leq(x,y): the children derive x's complete
// ancestor set (every leq(x,z) that does hold, value-sorted), showing
// y is not among them.
func (ex *Explainer) negLeqNode(x, y int) *ExplainNode {
	a := ex.a
	var ancestors []uint64
	for _, t := range ex.prov.engine.Tuples(ex.prov.rels.leq) {
		if t[0] == uint64(x) {
			ancestors = append(ancestors, t[1])
		}
	}
	sort.Slice(ancestors, func(i, j int) bool { return ancestors[i] < ancestors[j] })
	descs := make([]string, len(ancestors))
	children := make([]*ExplainNode, len(ancestors))
	for i, z := range ancestors {
		descs[i] = a.regionDesc(int(z))
		children[i] = ex.leqTree(uint64(x), z)
	}
	return &ExplainNode{
		Kind: "negated",
		Fact: fmt.Sprintf("!leq(%d,%d)", x, y),
		Note: fmt.Sprintf("%s only reaches {%s}; %s is not among them",
			a.regionDesc(x), strings.Join(descs, ", "), a.regionDesc(y)),
		Children: children,
	}
}

// leqTree walks the recorded witness of leq(x,z) recursively: leq
// premises expand through their own witnesses; region/parent premises
// become base leaves. Witness recording is well-founded (a premise was
// derived strictly before the fact it justifies), so the walk
// terminates without a visited set.
func (ex *Explainer) leqTree(x, z uint64) *ExplainNode {
	w, ok := ex.prov.engine.WitnessOf(ex.prov.rels.leq, x, z)
	if !ok {
		// leq is never pre-seeded, so a missing witness is a hole in the
		// recorder; make it visible rather than fabricating a leaf.
		return &ExplainNode{Kind: "base", Fact: fmt.Sprintf("leq(%d,%d)", x, z),
			Note: "missing witness", Pos: "<unknown>"}
	}
	n := &ExplainNode{
		Kind: "derived",
		Fact: fmt.Sprintf("leq(%d,%d)", x, z),
		Rule: ruleText[w.Rule],
	}
	if n.Rule == "" {
		n.Rule = w.Rule
	}
	for _, prem := range w.Premises {
		switch prem.Rel {
		case "leq":
			n.Children = append(n.Children, ex.leqTree(prem.Args[0], prem.Args[1]))
		case "region":
			n.Children = append(n.Children, ex.regionBase(int(prem.Args[0])))
		case "parent":
			n.Children = append(n.Children, ex.parentBase(int(prem.Args[0]), int(prem.Args[1])))
		default:
			n.Children = append(n.Children, &ExplainNode{Kind: "base", Fact: prem.String()})
		}
	}
	return n
}

// regionBase is the region(x) leaf: the fact that x is a region, at
// its creation site.
func (ex *Explainer) regionBase(x int) *ExplainNode {
	a := ex.a
	return &ExplainNode{
		Kind: "base",
		Fact: fmt.Sprintf("region(%d)", x),
		Pos:  a.regionPos(x),
		Note: a.regionDesc(x),
	}
}

// parentBase is the parent(c,p) leaf: the collapsed parent edge, at
// the child's creation site (where the parent argument was passed).
func (ex *Explainer) parentBase(c, p int) *ExplainNode {
	a := ex.a
	return &ExplainNode{
		Kind: "base",
		Fact: fmt.Sprintf("parent(%d,%d)", c, p),
		Pos:  a.regionPos(c),
		Note: fmt.Sprintf("%s is a subregion of %s", a.regionDesc(c), a.regionDesc(p)),
	}
}

// ownNode is the own(r,obj) leaf: region r owns obj, at the object's
// allocation site. A region owning itself is the φ⁼ reflexive
// extension rather than an allocation.
func (ex *Explainer) ownNode(r, obj int) *ExplainNode {
	a := ex.a
	note := fmt.Sprintf("%s owns the object allocated at %s", a.regionDesc(r), a.objPos(obj))
	if ri, ok := a.regionOf[obj]; ok && ri == r {
		note = fmt.Sprintf("%s owns itself as an object (φ⁼)", a.regionDesc(r))
	} else if _, owned := a.Owner[obj]; !owned && r == RootRegion {
		note = fmt.Sprintf("non-region object %s belongs to the immortal root region", a.objPos(obj))
	}
	return &ExplainNode{
		Kind: "base",
		Fact: fmt.Sprintf("own(%d,%d)", r, obj),
		Pos:  a.objPos(obj),
		Note: note,
	}
}

// accessNode is the access(o1,n,o2) leaf: the heap effect, positioned
// at the store instruction that wrote the pointer (found by the
// pointer layer's deterministic post-solve witness scan; the source
// allocation site is the fallback when the edge came from
// address-taken variable syncing).
func (ex *Explainer) accessNode(src int, off int64, dst int) *ExplainNode {
	a := ex.a
	pos := a.objPos(src)
	note := fmt.Sprintf("a field of %s (offset %d) may point at %s", a.objPos(src), off, a.objPos(dst))
	for _, l := range a.Ptr.HeapAt(src, off) {
		if l.Obj != dst {
			continue
		}
		if in, _, ok := a.Ptr.HeapWitness(src, off, l); ok {
			pos = a.instrPos(in)
			note += fmt.Sprintf("; stored at %s", pos)
		}
		break
	}
	return &ExplainNode{
		Kind: "base",
		Fact: fmt.Sprintf("access(%d,%d,%d)", src, off, dst),
		Pos:  pos,
		Note: note,
	}
}

// regionPos renders a region's creation position, falling back to the
// same descriptions the report uses so the leaf is never empty.
func (a *Analysis) regionPos(idx int) string {
	if idx == RootRegion {
		return "<root>"
	}
	r := a.Regions[idx]
	if r.Obj >= 0 {
		if p := a.sitePos(r.Obj); p.IsValid() {
			return p.String()
		}
		return a.objPos(r.Obj)
	}
	return a.regionDesc(idx)
}

// instrPos renders an instruction position with its enclosing
// function.
func (a *Analysis) instrPos(in ir.Inst) string {
	return fmt.Sprintf("%s (%s)", in.Pos(), in.Func().Name)
}

// String renders the explanation as a human-readable tree, one node
// per line: kind, fact, then the rule text (::), source position (@),
// and note (--) when present.
func (e *Explanation) String() string {
	var sb strings.Builder
	rank := ""
	if e.High {
		rank = " [HIGH]"
	}
	fmt.Fprintf(&sb, "warning %d%s: %s\n", e.Warning, rank, e.Message)
	writeNode(&sb, e.Tree, 1)
	return sb.String()
}

func writeNode(sb *strings.Builder, n *ExplainNode, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "- %s %s", n.Kind, n.Fact)
	if n.Rule != "" {
		fmt.Fprintf(sb, " :: %s", n.Rule)
	}
	if n.Pos != "" {
		fmt.Fprintf(sb, " @ %s", n.Pos)
	}
	if n.Note != "" {
		fmt.Fprintf(sb, " -- %s", n.Note)
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(sb, c, depth+1)
	}
}

// MarshalExplanations renders a set of explanations as the stable
// machine-readable document the CLI's -explain -json mode and the
// daemon's /v1/explain endpoint share.
func MarshalExplanations(exps []*Explanation) ([]byte, error) {
	doc := struct {
		Schema       string         `json:"schema"`
		Explanations []*Explanation `json:"explanations"`
	}{Schema: ExplainSchemaV1, Explanations: exps}
	if doc.Explanations == nil {
		doc.Explanations = []*Explanation{}
	}
	return json.MarshalIndent(doc, "", "  ")
}
