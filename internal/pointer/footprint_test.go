package pointer_test

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/pointer"
)

// TestPointerSolveFootprint: solving every program of the seed-1 paper
// corpus allocates at most twice what the solutions hold (a set per
// variable cell, a location per edge, a set and an offset per heap
// cell, a record and a cell list per object) plus the instructions the
// solver reads. A solver that keeps sets in maps, copies a set per
// operand read, or looks calls up by name per visit allocates several
// times that.
func TestPointerSolveFootprint(t *testing.T) {
	progs := corpusSolves(t)
	// A collection flushes the per-P allocation caches, which hold
	// back the count of the small objects they serve.
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocs := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	results := make([]*pointer.Result, len(progs))
	start := allocs()
	for i, p := range progs {
		r, err := pointer.AnalyzeContext(context.Background(), p.n, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	solved := allocs() - start

	var (
		header = uint64(unsafe.Sizeof([]pointer.Loc(nil)))
		loc    = uint64(unsafe.Sizeof(pointer.Loc{}))
		obj    = uint64(unsafe.Sizeof(pointer.Obj{}))
		inst   = uint64(unsafe.Sizeof(ir.Inst{}))
	)
	var cells, edges, heapCells, objects, instrs uint64
	for _, r := range results {
		cells += uint64(r.Prog.NumGlobals())
		for _, fn := range r.Numbering.G.ReachableFuncs() {
			f := r.Prog.Funcs[fn]
			cells += uint64(f.VarEnd-f.VarFirst) * r.Numbering.Count[fn]
			instrs += uint64(f.End - f.First)
		}
		edges += uint64(r.PtsSize() + r.HeapSize())
		type field struct {
			obj int
			off int64
		}
		seen := map[field]bool{}
		r.EachHeap(func(o int, off int64, _ pointer.Loc) { seen[field{o, off}] = true })
		heapCells += uint64(len(seen))
		objects += uint64(len(r.Objects))
	}
	held := cells*header + edges*loc + heapCells*(header+loc) + objects*(obj+header) + instrs*inst
	if limit := 2 * held; solved > limit {
		t.Fatalf("solving %d programs allocates %d bytes for %d cells, %d edges, %d heap cells, %d objects and %d instructions; want at most %d",
			len(progs), solved, cells, edges, heapCells, objects, instrs, limit)
	}
	t.Logf("solving %d programs allocates %d bytes; the solutions hold %d", len(progs), solved, held)
}
