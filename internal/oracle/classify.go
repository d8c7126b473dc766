package oracle

import (
	"regexp"
	"sort"
	"strings"

	"repro/internal/cminor"
)

// classifier maps allocation-site positions to the generated function
// containing them, and from there to a violation class: the planted
// pattern name when either endpoint sits in a pattern_* function,
// otherwise the structural region of the generator that produced it.
// Classes are what the allowlist keys on — a reduced-precision
// configuration's known misses are named, not blanket-ignored.
type classifier struct {
	// funcs maps file path to its defined functions sorted by line.
	funcs map[string][]funcSpan
}

type funcSpan struct {
	name string
	line int32
}

func newClassifier(files []*cminor.File) *classifier {
	c := &classifier{funcs: make(map[string][]funcSpan)}
	for _, f := range files {
		var spans []funcSpan
		for _, d := range f.Decls {
			if fd, ok := d.(*cminor.FuncDecl); ok && fd.Body != nil {
				spans = append(spans, funcSpan{name: fd.Name, line: fd.Pos.Line})
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].line < spans[j].line })
		c.funcs[f.Path] = spans
	}
	return c
}

// enclosing returns the name of the defined function containing pos.
func (c *classifier) enclosing(pos cminor.FilePos) string {
	spans := c.funcs[pos.File]
	name := ""
	for _, s := range spans {
		if s.line <= pos.Line {
			name = s.name
		} else {
			break
		}
	}
	return name
}

var patternFuncRe = regexp.MustCompile(`^pattern_(.+)_\d+$`)

// classOf maps a function name to its class.
func classOf(fn string) string {
	if m := patternFuncRe.FindStringSubmatch(fn); m != nil {
		return strings.ReplaceAll(m[1], "_", "-")
	}
	switch {
	case strings.HasPrefix(fn, "stage_"):
		return "stage"
	case strings.HasPrefix(fn, "lib_"):
		return "lib"
	case strings.HasPrefix(fn, "inflate_"):
		return "mutated"
	case fn == "main":
		return "main"
	case fn == "":
		return "other"
	}
	return "other"
}

// classify names the violation class of a dynamic pair: the planted
// pattern when either allocation site sits in a pattern function
// (preferring the holder's side), else the holder's structural class.
func (c *classifier) classify(src, dst cminor.FilePos) string {
	sc := classOf(c.enclosing(src))
	if patternClass(sc) {
		return sc
	}
	if dc := classOf(c.enclosing(dst)); patternClass(dc) {
		return dc
	}
	return sc
}

func patternClass(class string) bool {
	switch class {
	case "stage", "lib", "main", "mutated", "other":
		return false
	}
	return true
}
