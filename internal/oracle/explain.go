package oracle

import (
	"context"
	"fmt"

	"repro/internal/cminor"
	"repro/internal/core"
)

// missExplainer attaches a why-provenance derivation tree to
// soundness misses: the missed dynamic pair has no covering warning,
// so the most useful triage context is what the analysis DID derive
// closest to it — the nearest reported warning's explanation, showing
// which base facts and rules fired there. Everything is built lazily
// (most cases have no misses) and every failure degrades into a note: attaching an explanation must never turn a
// violation report into a harness error.
type missExplainer struct {
	a     *core.Analysis
	sites []core.PairSite
}

// nearest renders the explanation of the reported warning whose
// allocation-site pair is closest to the missed dynamic pair.
func (m *missExplainer) nearest(src, dst cminor.FilePos) string {
	if len(m.a.Report.Warnings) == 0 {
		return "no warnings reported under this configuration; nothing was derived near the missed pair"
	}
	if m.sites == nil {
		m.sites = m.a.PairSites()
	}
	best, bestDist := 1, -1
	for i, s := range m.sites {
		d := posDist(s.Src, src) + posDist(s.Dst, dst)
		if bestDist < 0 || d < bestDist {
			best, bestDist = i+1, d
		}
	}
	exps, err := m.a.Explain(context.Background(), best)
	if err != nil {
		return fmt.Sprintf("explanation unavailable: %v", err)
	}
	return fmt.Sprintf("nearest warning %d (%s -> %s):\n%s",
		best, m.sites[best-1].Src, m.sites[best-1].Dst, exps[0])
}

// posDist scores how far apart two source positions are: positions in
// the same file compare by line distance; a file change outweighs any
// in-file distance.
func posDist(a, b cminor.FilePos) int {
	if a.File != b.File {
		return 1 << 20
	}
	d := int(a.Line) - int(b.Line)
	if d < 0 {
		d = -d
	}
	return d
}
