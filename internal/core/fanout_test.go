package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fanOutSource emits a ternary call tree of the given depth: each
// f_i(p) creates a region under p, allocates a node in it, links the
// node into a global list, and calls f_{i+1} three times. Every node
// may point at every node, so σ grows as the square of the
// (3^(depth+1)−1)/2 nodes while the report keeps a few dozen
// instruction pairs.
func fanOutSource(depth int) string {
	var sb strings.Builder
	sb.WriteString(rcPrelude + "struct node { struct node *next; };\nstruct node *head;\n")
	for i := depth; i >= 0; i-- {
		fmt.Fprintf(&sb, "void f%d(region_t *p) {\n", i)
		sb.WriteString("    region_t *r; struct node *n;\n    r = rnew(p);\n    n = ralloc(r);\n    n->next = head;\n    head = n;\n")
		if i < depth {
			fmt.Fprintf(&sb, "    f%d(r); f%d(r); f%d(r);\n", i+1, i+1, i+1)
		}
		sb.WriteString("}\n")
	}
	sb.WriteString("int main(void) { f0(NULL); return 0; }\n")
	return sb.String()
}

// TestFanOutProbeFolds pins the depth-5 probe's report statistics and
// bounds what access, pairs and post allocate: σ and the object pairs
// are folded into instruction pairs as they are found, so 132,496 heap
// edges and 130,491 object pairs cost no list of either.
func TestFanOutProbeFolds(t *testing.T) {
	a, err := AnalyzeSource(Options{}, map[string]string{"fanout.c": fanOutSource(5)})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Report.Stats
	if s.Heap != 132496 || s.OPairs != 130491 || s.IPairs != 30 || s.High != 25 {
		t.Errorf("heap=%d O-pair=%d I-pair=%d high=%d, want 132496 130491 30 25",
			s.Heap, s.OPairs, s.IPairs, s.High)
	}
	var alloc int64
	for _, ph := range s.Phases {
		switch ph.Name {
		case PhaseAccess, PhasePairs, PhasePost:
			alloc += ph.AllocBytes
		}
	}
	if alloc > 4<<20 {
		t.Errorf("access, pairs and post allocate %d bytes, want at most 4 MB", alloc)
	}
}

// TestFanOutQuery asks the depth-5 probe's leaf allocation site about
// itself. The answer is pinned field by field, and the query takes no
// longer than the analysis did: it reads only the source objects' heap
// cells and verifies each pair by a binary search in its cell.
func TestFanOutQuery(t *testing.T) {
	a, err := AnalyzeSource(Options{}, map[string]string{"fanout.c": fanOutSource(5)})
	if err != nil {
		t.Fatal(err)
	}
	const site = "fanout.c:11"
	want := &PairAnswer{
		Schema:       QuerySchemaV1,
		Src:          site,
		Dst:          site,
		SrcObjects:   243,
		DstObjects:   243,
		Edges:        59049,
		Inconsistent: true,
		High:         true,
		Pairs:        58806,
		SrcRegion:    "region@fanout.c:10:13#0",
		DstRegion:    "region@fanout.c:10:13#1",
		Message:      "objects allocated at fanout.c:11 may hold a dangling pointer to objects allocated at fanout.c:11: owner region region@fanout.c:10:13#0 has no subregion order with region@fanout.c:10:13#1 (58806 object pair(s))",
	}
	// The fastest of three tries, so that one descheduling or GC
	// pause does not decide the comparison.
	best := time.Duration(1<<63 - 1)
	for range 3 {
		t0 := time.Now()
		got, err := a.QueryPair(context.Background(), site, site)
		best = min(best, time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryPair = %+v\nwant %+v", got, want)
		}
	}
	if best > a.Report.Stats.Time {
		t.Errorf("query took %v, longer than the %v analysis it reads", best, a.Report.Stats.Time)
	}
}
