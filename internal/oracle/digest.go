package oracle

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// CanonicalReport renders a report in a stable byte form containing
// every result-bearing field — warnings (message, sites, regions,
// rank, pair counts) and the relation-size statistics — while
// excluding wall times and the per-phase cost breakdown, which are
// legitimately nondeterministic. Backend parity and run-to-run
// determinism are defined as byte equality of this form.
func CanonicalReport(r *core.Report) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "warnings=%d\n", len(r.Warnings))
	for i, w := range r.Warnings {
		fmt.Fprintf(&sb, "w%d high=%t src=%s dst=%s off=%d pairs=%d srcreg=%q dstreg=%q cause=%q msg=%q\n",
			i, w.High(), w.SrcPos, w.DstPos, w.IPair.Off, w.IPair.Pairs,
			w.SrcRegion, w.DstRegion, w.Cause, w.Message)
	}
	s := r.Stats
	fmt.Fprintf(&sb, "stats R=%d H=%d sub=%d own=%d heap=%d rpairs=%d opairs=%d ipairs=%d high=%d contexts=%d funcs=%d instrs=%d causes=%d highcauses=%d\n",
		s.R, s.H, s.Sub, s.Own, s.Heap, s.RPairs, s.OPairs, s.IPairs,
		s.High, s.Contexts, s.Funcs, s.Instrs, s.Causes, s.HighCauses)
	// The throttle marking is result-bearing: parity and determinism
	// must cover it. Written only for throttled runs so pre-existing
	// digests of fully precise runs stay valid.
	if s.Throttled() {
		fmt.Fprintf(&sb, "precision policy=%s ctx_capped=%t ptr_capped_vars=%d\n",
			s.Policy, s.CtxCapped, s.PtrCappedVars)
	}
	return []byte(sb.String())
}
