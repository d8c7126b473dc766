package pointer

import "repro/internal/ir"

// HeapWitness returns an instruction (and the context it executed in)
// that established the heap points-to edge (obj, off) -> dst: a STORE
// whose base resolves to the cell and whose source carries dst, or an
// out-allocating extern call (apr_pool_create style) that allocated dst
// and wrote it through the cell. ok is false when no instruction-level
// writer exists — the edge came from address-taken variable syncing, or
// the arguments don't name a real edge.
//
// The scan is demand-driven and deterministic: functions in sorted
// order, contexts ascending, instructions in program order, and the
// first match wins. The scan reads only the converged points-to sets,
// so both solver backends witness the same instruction. It reads the
// sets in place, adds nothing to the Result, and is safe to call
// concurrently with other read-only accessors.
func (r *Result) HeapWitness(obj int, off int64, dst Loc) (ir.Inst, uint64, bool) {
	for i := range r.funcs {
		fc := &r.funcs[i]
		for ctx := uint64(0); ctx < fc.count; ctx++ {
			for c := r.Prog.Cursor(fc.f.First, fc.f.End); c.Next(); {
				in := c.Inst
				switch in.Op {
				case ir.Store:
					hit := false
					for _, b := range r.evalOpd(fc, in.Base(), ctx) {
						if b.Obj == obj && b.Off+in.Off() == off {
							hit = true
							break
						}
					}
					if !hit {
						continue
					}
					for _, l := range r.evalOpd(fc, in.Src(), ctx) {
						if l == dst {
							return in, ctx, true
						}
					}
				case ir.Call:
					if dst.Off != 0 || r.AllocObjAt(ctx, in.ID) != dst.Obj {
						continue
					}
					for _, name := range r.externCallees(&in) {
						argIdx, ok := r.Config.OutAllocFns[name]
						if !ok || argIdx >= in.NumArgs() {
							continue
						}
						for _, b := range r.evalOpd(fc, in.Arg(argIdx), ctx) {
							if b.Obj == obj && b.Off == off {
								return in, ctx, true
							}
						}
					}
				}
			}
		}
	}
	return ir.Inst{}, 0, false
}
