package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workloads"
)

// program is one analysis input together with its expected report: the
// generator records which bug pattern it planted in which function.
// Each planted function must be reported (the holder object is
// allocated inside it), ranked high exactly when its pattern is, and
// nothing else may be reported.
type program struct {
	name    string
	sources map[string]string
	expect  map[string]bool     // planted function -> high-ranked
	funcs   map[string][]string // per file of sources: funcLines
}

// corpus generates the paper-scale corpus for a seed, keeping the
// packages the filter accepts (nil keeps all).
func corpus(seed int64, keep func(workloads.Spec) bool) []*workloads.Package {
	var pkgs []*workloads.Package
	for _, spec := range workloads.PaperCorpus() {
		if keep == nil || keep(spec) {
			pkgs = append(pkgs, workloads.Generate(spec, seed))
		}
	}
	return pkgs
}

// programOf returns one executable as a program; split > 1 divides its
// file into that many files.
func programOf(pkg *workloads.Package, exe workloads.Exe, split int) *program {
	p := &program{name: exe.Name, expect: map[string]bool{}}
	if split > 1 {
		p.sources = pkg.SplitSourcesFor(exe, split)
	} else {
		p.sources = pkg.SourcesFor(exe)
	}
	for _, pl := range exe.Plants {
		p.expect[pl.Func] = pl.Pattern.HighRanked()
	}
	p.funcs = make(map[string][]string, len(p.sources))
	for path, src := range p.sources {
		p.funcs[path] = funcLines(src)
	}
	return p
}

// funcLines maps each 1-based line of a generated source file to the
// function whose definition contains it ("" outside any function). The
// generator starts every function definition on an unindented line
// ending in "{" and ends it with a lone "}".
func funcLines(src string) []string {
	lines := strings.Split(src, "\n")
	out := make([]string, len(lines)+1)
	cur := ""
	for i, l := range lines {
		if l != "" && l[0] != ' ' && strings.HasSuffix(l, "{") {
			if j := strings.IndexByte(l, '('); j > 0 {
				if f := strings.Fields(l[:j]); len(f) > 0 {
					cur = strings.TrimLeft(f[len(f)-1], "*")
				}
			}
		}
		out[i+1] = cur
		if l == "}" {
			cur = ""
		}
	}
	return out
}

// warning is the part of a reported warning the benchmark uses: the
// holder's and pointee's allocation sites ("file:line:col (allocator)")
// and the rank.
type warning struct {
	SrcSite string `json:"src_site"`
	DstSite string `json:"dst_site"`
	High    bool   `json:"high"`
}

// check compares the warnings reported for sources — the program's own
// or an edited copy — with the planted ground truth and returns a
// description of the first disagreement, or nil.
func (p *program) check(sources map[string]string, ws []warning) error {
	got := map[string]bool{}
	for _, w := range ws {
		fn := p.funcAt(sources, siteOf(w.SrcSite))
		if _, planted := p.expect[fn]; !planted {
			return fmt.Errorf("%s: unexpected warning at %s", p.name, w.SrcSite)
		}
		got[fn] = got[fn] || w.High
	}
	for fn, high := range p.expect {
		g, reported := got[fn]
		switch {
		case !reported:
			return fmt.Errorf("%s: planted bug in %s not reported", p.name, fn)
		case g != high:
			return fmt.Errorf("%s: %s ranked high=%v, want %v", p.name, fn, g, high)
		}
	}
	return nil
}

// funcAt names the function containing a "file:line:col" position of
// sources ("" when there is none).
func (p *program) funcAt(sources map[string]string, pos string) string {
	parts := strings.Split(pos, ":")
	if len(parts) < 2 {
		return ""
	}
	path := parts[0]
	line, err := strconv.Atoi(parts[1])
	if err != nil {
		return ""
	}
	idx := p.funcs[path]
	if src, ok := sources[path]; ok && src != p.sources[path] {
		idx = funcLines(src)
	}
	if line < 1 || line >= len(idx) {
		return ""
	}
	return idx[line]
}

// siteOf strips the allocating function's name from a reported site,
// leaving "file:line:col".
func siteOf(site string) string {
	if i := strings.LastIndex(site, " ("); i >= 0 {
		return site[:i]
	}
	return site
}

// editor models a developer editing a multi-file program. Four edits
// in five change one statement in a function body, which keeps every
// declaration and so stays on the incremental fast path; the fifth adds
// a function (dropping the oldest added one once a file holds
// maxAdded), which changes the file's declarations. Edits never touch
// the planted patterns, so the expected report is unchanged.
type editor struct {
	prog  *program
	paths []string          // editable files, in edit order
	orig  map[string]string // original content of each editable file
	mark  map[string]int    // value of each file's edited statement (0 = none)
	added map[string][]int  // ids of functions added to each file
	cur   map[string]string // current content of every file
	step  int
}

const maxAdded = 4

func newEditor(p *program) *editor {
	e := &editor{
		prog:  p,
		orig:  map[string]string{},
		mark:  map[string]int{},
		added: map[string][]int{},
		cur:   map[string]string{},
	}
	for path, src := range p.sources {
		e.cur[path] = src
		if strings.Contains(src, bodyMarker) {
			e.paths = append(e.paths, path)
			e.orig[path] = src
		}
	}
	sort.Strings(e.paths)
	return e
}

// bodyMarker ends the generator's filler functions; the body edit adds
// a statement before the first one in a file.
const bodyMarker = "    return acc;\n}"

// next makes the next edit and returns the changed file and its new
// content.
func (e *editor) next() (string, string) {
	e.step++
	path := e.paths[e.step%len(e.paths)]
	if e.step%5 == 0 {
		ids := append(e.added[path], e.step)
		if len(ids) > maxAdded {
			ids = ids[1:]
		}
		e.added[path] = ids
	} else {
		e.mark[path] = e.step
	}
	src := e.orig[path]
	if v := e.mark[path]; v != 0 {
		i := strings.Index(src, bodyMarker)
		src = src[:i] + fmt.Sprintf("    acc = acc + %d;\n", v) + src[i:]
	}
	var sb strings.Builder
	sb.WriteString(src)
	for _, id := range e.added[path] {
		fmt.Fprintf(&sb, "int perfbench_edit_%d(int x) {\n    return x + %d;\n}\n\n", id, id)
	}
	e.cur[path] = sb.String()
	return path, e.cur[path]
}
