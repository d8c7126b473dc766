package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	regionwiz "repro"
)

// watcher drives -watch mode: it polls the argument list, re-reads
// files whose mtime or size moved, debounces until two consecutive
// scans agree, and re-analyzes through an Analyzer handle — deltas
// against the previous run's result when possible, full analysis
// otherwise — printing only the warning diff. Files that vanish
// between the directory scan and the read (editors save by
// rename-over) are treated as removed, never as errors.
type watcher struct {
	args []string
	an   *regionwiz.Analyzer
	out  io.Writer
	errw io.Writer

	// stamps/contents cache file state so an unchanged file is not
	// re-read every tick.
	stamps   map[string]fileStamp
	contents map[string]string

	// pending is the debounce buffer: a scan that differs from the
	// last analyzed state is held until the next tick reproduces it.
	pending map[string]string
	// lastTried is the newest source set an analysis was attempted on
	// (successful or not); ticks compare against it to detect change.
	lastTried map[string]string
	// lastGood and baseKey identify the newest successful run: deltas
	// are computed against lastGood and submitted under baseKey.
	lastGood map[string]string
	baseKey  string
	warnings []string
}

type fileStamp struct {
	mtime time.Time
	size  int64
}

func newWatcher(args []string, an *regionwiz.Analyzer, out, errw io.Writer) *watcher {
	return &watcher{
		args:     args,
		an:       an,
		out:      out,
		errw:     errw,
		stamps:   make(map[string]fileStamp),
		contents: make(map[string]string),
	}
}

// runWatch is the -watch entry point: an initial full analysis, then
// re-analysis on change until interrupted.
func runWatch(ctx context.Context, args []string, opts regionwiz.Options, interval time.Duration, stdout, stderr io.Writer) int {
	an, err := regionwiz.New(opts)
	if err != nil {
		fmt.Fprintf(stderr, "regionwiz: %v\n", err)
		return 1
	}
	defer an.Close()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := newWatcher(args, an, stdout, stderr)
	fmt.Fprintf(w.errw, "regionwiz: watching %v (interval %v)\n", args, interval)
	w.analyze(ctx, w.scan())
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(w.errw, "regionwiz: watch stopped")
			return 0
		case <-t.C:
			w.tick(ctx)
		}
	}
}

// expand resolves the watched arguments to concrete paths: every
// directory contributes its current *.c files (so files added or
// deleted after startup are picked up), loose files contribute
// themselves while they exist.
func (w *watcher) expand() []string {
	var paths []string
	for _, arg := range w.args {
		st, err := os.Stat(arg)
		if err != nil {
			continue // a loose file deleted mid-session is just gone
		}
		if !st.IsDir() {
			paths = append(paths, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.c"))
		if err != nil {
			continue
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	return paths
}

// scan reads the current source set, reusing cached contents for
// files whose stamp has not moved. A file that disappears between
// listing and reading is silently dropped from the set.
func (w *watcher) scan() map[string]string {
	cur := make(map[string]string)
	for _, p := range w.expand() {
		st, err := os.Stat(p)
		if err != nil {
			continue // deleted between glob and stat
		}
		stamp := fileStamp{mtime: st.ModTime(), size: st.Size()}
		if prev, ok := w.stamps[p]; ok && prev == stamp {
			if c, ok := w.contents[p]; ok {
				cur[p] = c
				continue
			}
		}
		b, err := os.ReadFile(p)
		if err != nil {
			continue // deleted between stat and read
		}
		w.stamps[p] = stamp
		w.contents[p] = string(b)
		cur[p] = string(b)
	}
	for p := range w.contents {
		if _, ok := cur[p]; !ok {
			delete(w.contents, p)
			delete(w.stamps, p)
		}
	}
	return cur
}

// tick is one poll: detect change, debounce, re-analyze.
func (w *watcher) tick(ctx context.Context) {
	cur := w.scan()
	if equalSources(cur, w.lastTried) {
		w.pending = nil
		return
	}
	if w.pending == nil || !equalSources(cur, w.pending) {
		// First differing scan: hold until the next tick confirms the
		// files have stopped moving (editor save bursts).
		w.pending = cur
		return
	}
	w.pending = nil
	w.analyze(ctx, cur)
}

// analyze runs the pipeline over cur — as a delta against the last
// good run when one exists, falling back to a full analysis when the
// base result is gone from the cache — and prints the warning diff.
func (w *watcher) analyze(ctx context.Context, cur map[string]string) {
	w.lastTried = cur
	if len(cur) == 0 {
		fmt.Fprintln(w.errw, "regionwiz: watch: no source files remain; waiting")
		return
	}
	var res *regionwiz.Result
	var err error
	if w.baseKey != "" {
		changed, removed := diffSources(w.lastGood, cur)
		res, err = w.an.AnalyzeDelta(ctx, w.baseKey, changed, removed)
		if errors.Is(err, &regionwiz.Error{Kind: regionwiz.ErrSnapshotGone}) {
			res, err = w.an.AnalyzeResult(ctx, cur)
		}
	} else {
		res, err = w.an.AnalyzeResult(ctx, cur)
	}
	if err != nil {
		// Broken intermediate states (half-saved edits) are normal;
		// report and wait for the next change.
		fmt.Fprintf(w.errw, "regionwiz: watch: %v\n", err)
		return
	}
	w.lastGood = cur
	w.baseKey = res.Key
	next := warningLines(res.Analysis.Report)
	added, removed := diffLines(w.warnings, next)
	w.warnings = next

	how := "full analysis"
	if d := res.Delta; d != nil {
		how = fmt.Sprintf("delta: %d reused, %d changed, %d removed", d.FilesReused, d.FilesChanged, d.FilesRemoved)
	}
	if res.Cached {
		how += ", cached"
	}
	fmt.Fprintf(w.out, "regionwiz: %d warning(s), +%d/-%d (%s)\n", len(next), len(added), len(removed), how)
	for _, l := range added {
		fmt.Fprintf(w.out, "+ %s\n", l)
	}
	for _, l := range removed {
		fmt.Fprintf(w.out, "- %s\n", l)
	}
}

func warningLines(r *regionwiz.Report) []string {
	lines := make([]string, 0, len(r.Warnings))
	for _, wn := range r.Warnings {
		rank := "    "
		if wn.High() {
			rank = "HIGH"
		}
		lines = append(lines, fmt.Sprintf("[%s] %s", rank, wn.Message))
	}
	return lines
}

func equalSources(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for p, c := range a {
		if b[p] != c {
			return false
		}
	}
	return true
}

// diffSources computes the delta request body taking old to new.
func diffSources(old, new map[string]string) (changed map[string]string, removed []string) {
	changed = make(map[string]string)
	for p, c := range new {
		if prev, ok := old[p]; !ok || prev != c {
			changed[p] = c
		}
	}
	for p := range old {
		if _, ok := new[p]; !ok {
			removed = append(removed, p)
		}
	}
	sort.Strings(removed)
	return changed, removed
}

// diffLines returns the multiset differences new-minus-old (added)
// and old-minus-new (removed), preserving new's order for additions.
func diffLines(old, new []string) (added, removed []string) {
	count := make(map[string]int)
	for _, l := range old {
		count[l]++
	}
	for _, l := range new {
		if count[l] > 0 {
			count[l]--
		} else {
			added = append(added, l)
		}
	}
	for _, l := range old {
		if count[l] > 0 {
			count[l]--
			removed = append(removed, l)
		}
	}
	return added, removed
}
