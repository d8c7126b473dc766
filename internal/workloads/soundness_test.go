package workloads

import (
	"fmt"
	"testing"

	"repro/internal/cminor"
	"repro/internal/core"
	"repro/internal/interp"
)

// TestSoundnessAgainstInterpreter is the repository's central safety
// property: on the supported language fragment, every inconsistency
// observed by concretely executing a program (the Figure 4 semantics,
// checked per equation 4.12) must be reported by the static analysis.
// Concrete and static reports are matched by the source positions of
// the two allocation sites.
func TestSoundnessAgainstInterpreter(t *testing.T) {
	var specs []Spec
	// Single-pattern micro packages...
	for _, pat := range []Pattern{SiblingLeak, IteratorEscape,
		StringShare, InvertedLifetime, TemporaryInconsistency} {
		specs = append(specs, Spec{
			Name: "s-" + string(pat), Exes: 1, Stages: 1, Depth: 1,
			Fanout: 1, Interface: "apr", Plants: []Pattern{pat},
		})
		specs = append(specs, Spec{
			Name: "s-rc-" + string(pat), Exes: 1, Stages: 1, Depth: 1,
			Fanout: 1, Interface: "rc", Plants: []Pattern{pat},
		})
	}
	// ...mixed pipelines...
	specs = append(specs,
		Spec{Name: "mix1", Exes: 1, Stages: 2, Depth: 3, Fanout: 2,
			Interface: "apr", Plants: []Pattern{SiblingLeak, IteratorEscape}},
		Spec{Name: "mix2", Exes: 1, Stages: 3, Depth: 2, Fanout: 2,
			Interface: "rc", Plants: []Pattern{StringShare, InvertedLifetime}},
		// ...and a multi-file shared-library package: region creation
		// crosses translation units, the heap-cloning stress case.
		Spec{Name: "mixlib", Exes: 1, Stages: 2, Depth: 2, Fanout: 2,
			Interface: "apr", SharedLib: true,
			Plants: []Pattern{SiblingLeak, InvertedLifetime}},
	)

	for _, spec := range specs {
		for seed := int64(0); seed < 3; seed++ {
			pkg := Generate(spec, seed)
			for _, exe := range pkg.Exes {
				checkSoundness(t, fmt.Sprintf("%s/seed%d", exe.Name, seed), pkg.SourcesFor(exe))
			}
		}
	}
}

func checkSoundness(t *testing.T, name string, sources map[string]string) {
	t.Helper()
	a, err := core.AnalyzeSource(core.Options{}, sources)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	posKey := func(src, dst cminor.FilePos) string {
		return fmt.Sprintf("%s|%s", src, dst)
	}
	static := map[string]bool{}
	for _, ps := range a.PairSites() {
		static[posKey(ps.Src, ps.Dst)] = true
	}
	// Drive several executions (argc controls the main loop trip
	// count).
	for _, argc := range []int64{0, 1, 3} {
		eff, err := interp.Run(a.Info, interp.Options{Args: []int64{argc}}, a.Files...)
		if err != nil {
			t.Fatalf("%s: interp(argc=%d): %v", name, argc, err)
		}
		for _, inc := range eff.Inconsistencies() {
			srcPos := inc.Edge.Src.Site
			var dstPos cminor.FilePos
			if inc.Edge.DstObj != nil {
				dstPos = inc.Edge.DstObj.Site
			} else if inc.Edge.DstReg != nil {
				dstPos = inc.Edge.DstReg.Site
			}
			if !static[posKey(srcPos, dstPos)] {
				t.Errorf("%s: concrete inconsistency %v -> %v (argc=%d) not statically reported; static pairs: %v",
					name, srcPos, dstPos, argc, a.PairSites())
			}
		}
	}
}
