package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro"
	"repro/internal/workloads"
)

// warningsOf lists a library report's warnings in the form the ground
// truth check takes.
func warningsOf(r *regionwiz.Report) []warning {
	ws := make([]warning, len(r.Warnings))
	for i, w := range r.Warnings {
		ws[i] = warning{SrcSite: w.SrcPos, DstSite: w.DstPos, High: w.High()}
	}
	return ws
}

// corpus-cold: the command-line corpus run. One operation analyzes
// every executable of the paper-scale corpus (22 programs, six
// packages) from scratch through the one-shot library call the
// regionwiz command uses, explicit backend, one after another.

type coldEnv struct {
	progs []*program
}

func setupCorpusCold(seed int64) (env, error) {
	e := &coldEnv{}
	for _, pkg := range corpus(seed, nil) {
		for _, exe := range pkg.Exes {
			e.progs = append(e.progs, programOf(pkg, exe, 1))
		}
	}
	// Finish lazy initialization before measuring: analyze the smallest
	// program once.
	small := e.progs[0]
	for _, p := range e.progs {
		if len(p.sources[p.name+".c"]) < len(small.sources[small.name+".c"]) {
			small = p
		}
	}
	a, err := regionwiz.AnalyzeSource(regionwiz.Options{}, small.sources)
	if err != nil {
		return nil, fmt.Errorf("warm-up analysis of %s: %w", small.name, err)
	}
	if err := small.check(small.sources, warningsOf(a.Report)); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *coldEnv) measure(deadline time.Time, rec *recorder) error {
	ctx := context.Background()
	for time.Now().Before(deadline) {
		o := op{kind: "corpus", start: time.Now()}
		for _, p := range e.progs {
			rec.attempt()
			t0 := time.Now()
			a, err := regionwiz.AnalyzeSourceContext(ctx, regionwiz.Options{}, p.sources)
			o.wall += time.Since(t0)
			if err != nil {
				rec.fail(fmt.Errorf("%s: %w", p.name, err))
				continue
			}
			o.runs = append(o.runs, phasesOf(a.Report))
			if err := p.check(p.sources, warningsOf(a.Report)); err != nil {
				rec.wrong("%v", err)
			}
		}
		rec.add(o)
	}
	return nil
}

func (e *coldEnv) close() {}

// edit-bdd: the edit loop on the BDD backend. The largest package's
// first executable is split into eight files and analyzed once; each
// operation is then one edit (see editor) sent as a delta against the
// previous result, through an Analyzer handle with the BDD backend.

type editEnv struct {
	an  *regionwiz.Analyzer
	ed  *editor
	key string
}

// editSplit is how many files the edited executable is split into.
const editSplit = 8

func setupEditBDD(seed int64) (env, error) {
	pkgs := corpus(seed, func(s workloads.Spec) bool { return s.Name == "subversion" })
	p := programOf(pkgs[0], pkgs[0].Exes[0], editSplit)
	var opts regionwiz.Options
	opts.Solver.Backend = regionwiz.BDDBackend
	// An editing session needs only its latest snapshot and result.
	an, err := regionwiz.NewAnalyzer(opts, regionwiz.AnalyzerConfig{CacheEntries: 2, SnapshotEntries: 2})
	if err != nil {
		return nil, err
	}
	res, err := an.AnalyzeResult(context.Background(), p.sources)
	if err != nil {
		an.Close()
		return nil, fmt.Errorf("base analysis of %s: %w", p.name, err)
	}
	if err := p.check(p.sources, warningsOf(res.Analysis.Report)); err != nil {
		an.Close()
		return nil, err
	}
	return &editEnv{an: an, ed: newEditor(p), key: res.Key}, nil
}

func (e *editEnv) measure(deadline time.Time, rec *recorder) error {
	ctx := context.Background()
	before := e.an.Stats()
	var last *regionwiz.Report
	for time.Now().Before(deadline) {
		path, src := e.ed.next()
		rec.attempt()
		o := op{kind: "edit", start: time.Now()}
		res, err := e.an.AnalyzeDelta(ctx, e.key, map[string]string{path: src}, nil)
		o.wall = time.Since(o.start)
		if err != nil {
			// The chain is broken without a new base; stop here.
			rec.fail(fmt.Errorf("edit %d of %s: %w", e.ed.step, path, err))
			break
		}
		e.key = res.Key
		last = res.Analysis.Report
		o.runs = [][]phase{phasesOf(last)}
		if err := e.ed.prog.check(e.ed.cur, warningsOf(last)); err != nil {
			rec.wrong("%v", err)
		}
		rec.add(o)
	}
	rec.service(before, e.an.Stats())
	if last == nil {
		return nil
	}
	// The chain of BDD-backend deltas must land on the report a
	// from-scratch explicit-backend run of the final sources produces.
	full, err := regionwiz.AnalyzeSource(regionwiz.Options{}, e.ed.cur)
	if err != nil {
		return fmt.Errorf("from-scratch check run: %w", err)
	}
	got, err := stableReport(last)
	if err != nil {
		return err
	}
	want, err := stableReport(full.Report)
	if err != nil {
		return err
	}
	if got != want {
		rec.wrong("edit chain report differs from a from-scratch explicit-backend run")
	}
	return nil
}

func (e *editEnv) close() { e.an.Close() }

// stableReport renders a report without its timing fields (the total
// time and the per-phase breakdown).
func stableReport(r *regionwiz.Report) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	if stats, ok := m["stats"].(map[string]any); ok {
		delete(stats, "time_ms")
		delete(stats, "phases")
	}
	out, err := json.Marshal(m)
	return string(out), err
}
