package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pointer"
	"repro/internal/trace"
)

// QuerySchemaV1 identifies the pair-query JSON encoding (the
// regionwiz -query output and the regionwizd /v1/query endpoint).
// Consumers should check it before decoding; additive changes keep the
// v1 name, incompatible ones bump it.
const QuerySchemaV1 = "regionwiz/query/v1"

// PairAnswer is the verdict of one pair query: whether the objects
// allocated at Src may hold pointers into the objects allocated at Dst
// across regions with no subregion order. The verdict is read from a
// finished analysis and agrees with its report — a pair is
// inconsistent here exactly when the report carries a warning for the
// same site pair (TestCorpusBothBackendsAgree pins that equivalence).
type PairAnswer struct {
	Schema string `json:"schema"`
	// Src and Dst echo the resolved allocation-site positions.
	Src string `json:"src"`
	Dst string `json:"dst"`
	// SrcObjects / DstObjects count the abstract objects (context
	// clones) the two sites resolved to; Edges counts the σ edges from
	// the source objects' heap cells into the destination objects,
	// each of which was checked.
	SrcObjects int `json:"src_objects"`
	DstObjects int `json:"dst_objects"`
	Edges      int `json:"access_edges"`
	// Inconsistent is the verdict; High is the Section 5.4 rank of the
	// worst witnessing object pair; Pairs counts the inconsistent
	// object pairs between the two sites.
	Inconsistent bool `json:"inconsistent"`
	High         bool `json:"high"`
	Pairs        int  `json:"object_pairs"`
	// SrcRegion / DstRegion describe the witnessing owner-region pair
	// (present only for inconsistent answers).
	SrcRegion string `json:"src_region,omitempty"`
	DstRegion string `json:"dst_region,omitempty"`
	// Message is the one-line human rendering.
	Message string `json:"message"`
	// Throttled marks an answer computed under reduced precision (see
	// Stats.Throttled): the verdict may be an artifact of context
	// merging or ⊤ collapse rather than of the program.
	Throttled bool `json:"throttled,omitempty"`
}

// String renders the answer the way the CLI prints it.
func (q *PairAnswer) String() string {
	return q.Message
}

// QueryPair answers one pair query against a finished analysis (a
// one-shot run or one of the daemon's cached results): srcSite and
// dstSite are "file:line" or "file:line:col" allocation-site
// positions. Only the heap cells of the source site's objects are
// read: each σ edge into a destination object is checked as the pairs
// phase checks it (checkEdge), so the verdict agrees with the report,
// and every witnessing pair is re-derived from the region tree,
// ownership, and the heap cell (verifyPair). A pair that does not
// re-derive is an internal error, surfaced rather than papered over.
func (a *Analysis) QueryPair(ctx context.Context, srcSite, dstSite string) (*PairAnswer, error) {
	if a.Report == nil {
		return nil, Errf(ErrInternal, "", "query: analysis has no report")
	}
	_, sp := trace.StartSpan(ctx, "query.pair")
	ans, err := a.queryPair(srcSite, dstSite)
	if err != nil {
		sp.End(trace.Bool("error", true))
		return nil, err
	}
	if sp != nil {
		sp.End(
			trace.Int("edges", ans.Edges),
			trace.Int("pairs", ans.Pairs),
			trace.Bool("inconsistent", ans.Inconsistent))
	}
	return ans, nil
}

// queryPair computes QueryPair's answer; QueryPair wraps it in the
// query.pair span so every return ends that span.
func (a *Analysis) queryPair(srcSite, dstSite string) (*PairAnswer, error) {
	srcObjs, err := a.allocObjectsAt(srcSite)
	if err != nil {
		return nil, err
	}
	dstObjs, err := a.allocObjectsAt(dstSite)
	if err != nil {
		return nil, err
	}
	dstSet := make(map[int]bool, len(dstObjs))
	for _, o := range dstObjs {
		dstSet[o] = true
	}
	// The source objects' σ edges in (Src, Off, Dst) order, the order
	// of the pairs the report was condensed from; the representative
	// is the first high-ranked pair, else the first.
	edges, pairs := 0, 0
	var rep ObjectPair
	for _, src := range srcObjs {
		var err error
		a.eachAccessFrom(src, func(off int64, dst int) {
			if err != nil || !dstSet[dst] {
				return
			}
			edges++
			p, bad := a.checkEdge(src, off, dst)
			if !bad {
				return
			}
			if err = a.verifyPair(p); err != nil {
				return
			}
			if pairs == 0 || p.High && !rep.High {
				rep = p
			}
			pairs++
		})
		if err != nil {
			return nil, err
		}
	}
	ans := &PairAnswer{
		Schema:     QuerySchemaV1,
		Src:        srcSite,
		Dst:        dstSite,
		SrcObjects: len(srcObjs),
		DstObjects: len(dstObjs),
		Edges:      edges,
		Pairs:      pairs,
		Throttled:  a.Report.Stats.Throttled(),
	}
	if pairs > 0 {
		ans.Inconsistent = true
		ans.High = rep.High
		ans.SrcRegion = a.regionDesc(rep.Evidence[0])
		ans.DstRegion = a.regionDesc(rep.Evidence[1])
		ans.Message = fmt.Sprintf(
			"objects allocated at %s may hold a dangling pointer to objects allocated at %s: owner region %s has no subregion order with %s (%d object pair(s))",
			srcSite, dstSite, ans.SrcRegion, ans.DstRegion, pairs)
	} else {
		ans.Message = fmt.Sprintf(
			"no inconsistent access from %s to %s (%d access edge(s) checked)",
			srcSite, dstSite, edges)
	}
	return ans, nil
}

// allocObjectsAt resolves a "file:line" or "file:line:col" query
// string to the allocation objects (all context clones) at that
// position. An unparsable query is a config error; a position with no
// allocation site is a resolve error — the query named something the
// program does not allocate.
func (a *Analysis) allocObjectsAt(q string) ([]int, error) {
	file, line, col, err := parseSiteQuery(q)
	if err != nil {
		return nil, err
	}
	var out []int
	for id, o := range a.Ptr.Objects {
		if o.Kind != pointer.AllocObj {
			continue
		}
		p := a.sitePos(id)
		if !p.IsValid() {
			continue
		}
		if p.File != file || int(p.Line) != line {
			continue
		}
		if col > 0 && int(p.Col) != col {
			continue
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, Errf(ErrResolve, q, "query: no allocation site at %s", q)
	}
	sort.Ints(out)
	return out, nil
}

// parseSiteQuery splits "file:line" or "file:line:col". The file part
// may itself contain colons; the numeric fields bind from the right.
func parseSiteQuery(q string) (file string, line, col int, err error) {
	parts := strings.Split(q, ":")
	if len(parts) >= 3 {
		if l, el := strconv.Atoi(parts[len(parts)-2]); el == nil {
			if c, ec := strconv.Atoi(parts[len(parts)-1]); ec == nil {
				return strings.Join(parts[:len(parts)-2], ":"), l, c, nil
			}
		}
	}
	if len(parts) >= 2 {
		if l, el := strconv.Atoi(parts[len(parts)-1]); el == nil {
			return strings.Join(parts[:len(parts)-1], ":"), l, 0, nil
		}
	}
	return "", 0, 0, Errf(ErrConfig, "", "query: want file:line or file:line:col, got %q", q)
}
