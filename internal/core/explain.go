package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

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
// produces the same bytes run to run and on both solver backends — so
// they deliberately carry no timing or backend accounting.
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

// Explainer answers why-provenance queries against one finished
// analysis. Trees are read off the collapsed region tree
// (Regions[].Parent), the ownership table, and the access edges: after
// collapseParents every non-root region has exactly one parent, so
// leq(x,·) is x's ancestor chain and regionPair(x,y) means y is not on
// it. No Datalog engine is built. An Explainer is read-only over the
// analysis and safe for concurrent Explain calls.
type Explainer struct {
	a *Analysis
}

// Explainer returns the explanation engine for this run's report.
// Building one does no work, so the context is unused; it stays in the
// signature so existing callers keep compiling.
func (a *Analysis) Explainer(context.Context) (*Explainer, error) {
	if a.Report == nil {
		return nil, Errf(ErrInternal, "", "explain: analysis has no report")
	}
	return &Explainer{a: a}, nil
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
	if err := a.verifyPair(pair); err != nil {
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

// leqChain returns x's ancestor chain x, parent(x), ..., root: exactly
// the z with leq(x,z) under the closure rules (regionLeqRules), in the
// order they derive them. The root has no parent fact, so the walk
// ends there; like Leq, it also stops at a repeated region, so a parent
// cycle cannot make it loop.
func (a *Analysis) leqChain(x int) []int {
	chain := []int{x}
	for z := x; z != RootRegion; {
		z = a.Regions[z].Parent
		if z < 0 || slices.Contains(chain, z) {
			break
		}
		chain = append(chain, z)
	}
	return chain
}

// verifyPair re-derives a reported object pair's objectPair fact at
// its evidence region pair from the analysis tables, independently of
// the edge check that produced the pair: regionPair(x,y) holds when
// both are regions and y is not on x's ancestor chain, own(x,Src) and
// own(y,Dst) come from ownersOf, and access(Src,Off,Dst) must be one of
// the access edges. A pair that does not re-derive means the result
// and the region tree disagree — an internal error, surfaced rather
// than papered over.
func (a *Analysis) verifyPair(p ObjectPair) error {
	x, y := p.Evidence[0], p.Evidence[1]
	isRegion := func(r int) bool { return r >= 0 && r < len(a.Regions) }
	if !isRegion(x) || !isRegion(y) || slices.Contains(a.leqChain(x), y) {
		return Errf(ErrInternal, "", "verify: evidence regionPair(%d,%d) does not hold in the region tree", x, y)
	}
	if !slices.Contains(a.ownersOf(p.Src), x) || !slices.Contains(a.ownersOf(p.Dst), y) {
		return Errf(ErrInternal, "", "verify: evidence regions (%d,%d) do not own objects (%d,%d)", x, y, p.Src, p.Dst)
	}
	if !slices.Contains(a.AccessEdges, AccessEdge{Src: p.Src, Off: p.Off, Dst: p.Dst}) {
		return Errf(ErrInternal, "", "verify: access(%d,%d,%d) is not an access edge", p.Src, p.Off, p.Dst)
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
	chain := a.leqChain(x)
	byValue := make([]int, len(chain)) // chain indices, ordered by region
	for k := range byValue {
		byValue[k] = k
	}
	sort.Slice(byValue, func(i, j int) bool { return chain[byValue[i]] < chain[byValue[j]] })
	descs := make([]string, len(chain))
	children := make([]*ExplainNode, len(chain))
	for i, k := range byValue {
		descs[i] = a.regionDesc(chain[k])
		children[i] = ex.leqTree(chain, k)
	}
	return &ExplainNode{
		Kind: "negated",
		Fact: fmt.Sprintf("!leq(%d,%d)", x, y),
		Note: fmt.Sprintf("%s only reaches {%s}; %s is not among them",
			a.regionDesc(x), strings.Join(descs, ", "), a.regionDesc(y)),
		Children: children,
	}
}

// leqTree derives leq(x,z) for z = chain[k] on x's ancestor chain by
// the rule semi-naive evaluation of regionLeqRules fires first:
// reflexivity for z = x, the parent rule for x's direct parent (it
// precedes the transitive rule, which would also derive it), and
// otherwise the transitive rule from leq(x,c) and parent(c,z), where c
// is z's child on the chain.
func (ex *Explainer) leqTree(chain []int, k int) *ExplainNode {
	x, z := chain[0], chain[k]
	n := &ExplainNode{Kind: "derived", Fact: fmt.Sprintf("leq(%d,%d)", x, z)}
	switch k {
	case 0:
		n.Rule = ruleText["leq:-region"]
		n.Children = []*ExplainNode{ex.regionBase(x)}
	case 1:
		n.Rule = ruleText["leq:-parent"]
		n.Children = []*ExplainNode{ex.parentBase(x, z)}
	default:
		n.Rule = ruleText["leq:-leq,parent"]
		n.Children = []*ExplainNode{ex.leqTree(chain, k-1), ex.parentBase(chain[k-1], z)}
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
