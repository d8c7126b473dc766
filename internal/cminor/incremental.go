package cminor

import (
	"slices"
	"strings"
)

// This file is the checker's incremental seam. A re-analysis that
// changed function bodies, or added or removed whole function
// definitions, does not need to re-resolve the world: the rest of the
// declaration environment (structs, typedefs, enums, globals, the
// other function signatures) is unchanged, so the facts for unchanged
// files stay valid and only the changed files need re-checking.
//
// The contract is textual: SameDecls compares two versions of a file
// outside their function bodies, byte for byte, using the spans the
// parser recorded, after cutting out each definition one version has
// and the other lacks. A definition is cut from its first token to
// the token after its body, and the functions both versions define
// must appear in the same order. Equal remaining text parses to equal
// declarations, because neither a body nor a cut definition can change
// the parser state that file-scope parsing reads: typedef names are
// registered only by typedefs, and the anonymous-type counter moves
// inside a body or a signature only when a type is defined there,
// which makes a file ineligible (a body) or the definition uncuttable
// (a signature). A body's span runs from its "{" to the next token, so
// it takes in the comments right after its "}"; a comment or
// whitespace edit anywhere else outside the bodies and the cut
// definitions fails the comparison, and the caller takes the full
// check, which is still correct.
//
// CheckIncremental then starts from the previous environment, drops
// the removed functions, declares the added ones and re-checks the
// changed files' bodies and initializers. That equals a full check
// only under conditions on the whole program, which the caller checks
// (core's check phase) and otherwise takes the full check: an added
// name is declared nowhere in the previous environment and added only
// once, a removed name is named by no identifier of the new sources,
// and the incremental check reports no diagnostic.
//
// CheckIncremental returns a *partial* Info: the per-name environment
// maps (Structs, Typedefs, Funcs, Globals, Enums) are complete copies,
// and Objects is a copy of the previous table, but the per-AST-node
// facts (the
// per-file Uses and FuncInfo tables, and Fields, Sizeofs, PtrArith)
// cover only the re-checked declarations. That is exactly what the IR
// lowering needs, because unchanged files are not re-lowered either —
// their cached IR fragments are reused (see ir.Fragment). Nothing
// downstream of lowering reads the per-node facts.

// DeclEdit is how a changed file's function definitions differ from
// its previous version's, as SameDecls found them.
type DeclEdit struct {
	// Added are the definitions only the new version has, in source
	// order.
	Added []*FuncDecl
	// Removed names the definitions only the previous version has.
	Removed []string
}

// SameDecls reports whether cur, parsed from src, declares what old,
// parsed from oldSrc, declares, apart from whole function definitions
// one of them adds, so that a check may reuse old's declaration
// environment for cur; the DeclEdit names those definitions. Both
// files must have parsed without errors. It holds when neither file
// defines a struct or enum inside a function body or a global
// initializer (re-checking such a definition against an environment
// that already laid it out would be a spurious redefinition), no name
// is defined twice in either file, the functions both define appear
// in the same order, every added or removed definition can be cut out
// whole (it is its declaration's only declarator and its signature
// defines no type), and with those cut out the text before, between
// and after the bodies is byte-identical. Global initializers and
// parameter names are outside the bodies, so an edit to either fails
// the comparison.
func SameDecls(old *File, oldSrc string, cur *File, src string) (DeclEdit, bool) {
	var e DeclEdit
	if old.bodyTypeDefs || cur.bodyTypeDefs {
		return e, false
	}
	od, cd := definitions(old), definitions(cur)
	oldNames, ok := nameSet(od)
	curNames, ok2 := nameSet(cd)
	if !ok || !ok2 {
		return e, false
	}
	var kept []string
	for _, d := range od {
		if curNames[d.Name] {
			kept = append(kept, d.Name)
		} else if d.declOff < 0 {
			return e, false
		} else {
			e.Removed = append(e.Removed, d.Name)
		}
	}
	i := 0
	for _, d := range cd {
		if !oldNames[d.Name] {
			if d.declOff < 0 {
				return e, false
			}
			e.Added = append(e.Added, d)
		} else if kept[i] != d.Name {
			return e, false
		} else {
			i++
		}
	}
	a := outside{src: oldSrc, defs: od, cut: curNames}
	b := outside{src: src, defs: cd, cut: oldNames}
	return e, sameOutside(&a, &b)
}

// definitions returns the file's function definitions in source
// order.
func definitions(f *File) []*FuncDecl {
	defs := make([]*FuncDecl, 0, f.NumBodies)
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
			defs = append(defs, fd)
		}
	}
	return defs
}

// nameSet returns the names of defs as a set, or false when a name
// repeats.
func nameSet(defs []*FuncDecl) (map[string]bool, bool) {
	set := make(map[string]bool, len(defs))
	for _, d := range defs {
		if set[d.Name] {
			return nil, false
		}
		set[d.Name] = true
	}
	return set, true
}

// outside walks a file's text outside its function bodies, in runs
// that each end at a definition: at the body of a definition the other
// version of the file has too, or at the start of one it lacks, which
// is cut out whole.
type outside struct {
	src  string
	defs []*FuncDecl
	// cut holds the other version's definition names; a definition
	// not in it is cut out.
	cut map[string]bool
	at  int32
	i   int
}

// What ends a run of outside text.
const (
	runAtCut = iota
	runAtBody
	runAtEnd
)

// next returns the next run of text and what ends it.
func (o *outside) next() (string, int) {
	if o.i == len(o.defs) {
		return o.src[o.at:], runAtEnd
	}
	d := o.defs[o.i]
	o.i++
	from := o.at
	o.at = d.bodyEnd
	if !o.cut[d.Name] {
		return o.src[from:d.declOff], runAtCut
	}
	return o.src[from:d.bodyOff], runAtBody
}

// sameOutside reports whether a and b have equal text outside their
// kept bodies and cut definitions, with every kept body at the same
// place in both: cuts may fall anywhere in a run, but bodies must
// line up.
func sameOutside(a, b *outside) bool {
	ra, ka := a.next()
	rb, kb := b.next()
	for {
		n := min(len(ra), len(rb))
		if ra[:n] != rb[:n] {
			return false
		}
		ra, rb = ra[n:], rb[n:]
		switch {
		case ra == "" && ka == runAtCut:
			ra, ka = a.next()
		case rb == "" && kb == runAtCut:
			rb, kb = b.next()
		case ra != "" || rb != "" || ka != kb:
			return false
		case ka == runAtEnd:
			return true
		default:
			ra, ka = a.next()
			rb, kb = b.next()
		}
	}
}

// HasIdent reports whether name occurs in src as a whole identifier:
// not inside a longer identifier or number. Comments and string
// literals are not told apart from code, so it may report an
// occurrence the lexer would not. name must be a non-empty
// identifier; then a failed match cannot overlap a whole one, so the
// search resumes after it and reads src once.
func HasIdent(src, name string) bool {
	for at := 0; ; {
		i := strings.Index(src[at:], name)
		if i < 0 {
			return false
		}
		i += at
		end := i + len(name)
		if (i == 0 || !isIdentCont(src[i-1])) && (end == len(src) || !isIdentCont(src[end])) {
			return true
		}
		at = end
	}
}

// Declares reports whether the environment declares name as a
// function (defined, prototyped or implicit), a global, an enum
// constant or a typedef.
func (info *Info) Declares(name string) bool {
	_, f := info.Funcs[name]
	_, g := info.Globals[name]
	_, e := info.Enums[name]
	_, t := info.Typedefs[name]
	return f || g || e || t
}

// HasImplicitFuncs reports whether checking recorded any C89-style
// implicit function declaration. An implicit declaration is created by
// a *call site* inside a body, so a body edit can add or remove one —
// the declaration environment then depends on bodies and the
// SameDecls reuse argument no longer holds.
func HasImplicitFuncs(info *Info) bool {
	for _, fo := range info.Funcs {
		if fo.Implicit {
			return true
		}
	}
	return false
}

// CheckIncremental re-checks only the changed files of a program
// against the environment of a previous full (or incremental) check.
// edits holds, for each changed path, the DeclEdit SameDecls returned
// for it.
//
// Preconditions, enforced by the caller (see core's check phase):
// prev must be error-free, must cover the same path set, SameDecls
// must hold for every changed file against its previous version, prev
// must be free of implicit function declarations (HasImplicitFuncs),
// no added name may be declared in prev (Info.Declares) or added
// twice, and no removed name may occur in the new sources (HasIdent).
// A result with errors is not the full check's, and the caller must
// discard it. So must it a nil result, which CheckIncremental returns
// when resolving an added signature enters a struct or typedef prev
// lacks.
//
// The returned Info never aliases prev's tables — prev stays valid as
// an immutable base, so several deltas can be checked against it
// concurrently. The per-name maps and Objects are complete copies: a
// removed function's slot is nil until an added object takes its
// number, and a function the changed files define gets a new object
// naming its new definition. Uses and FuncInfo have tables only for
// each changed file, and the other per-node fact maps hold entries
// only for changed files' global initializers and function bodies.
// Retained objects (struct layouts, the other function objects, global
// objects) are shared, never mutated.
func CheckIncremental(prev *Info, files []*File, edits map[string]DeclEdit) *Info {
	c := &checker{
		info: &Info{
			Uses:     make(map[*File][]int32, len(edits)),
			Objects:  slices.Clone(prev.Objects),
			Fields:   make(map[*FieldAccess]FieldInfo),
			Structs:  copyStrMap(prev.Structs),
			Typedefs: copyStrMap(prev.Typedefs),
			Funcs:    copyStrMap(prev.Funcs),
			Globals:  copyStrMap(prev.Globals),
			Enums:    copyStrMap(prev.Enums),
			FuncInfo: make(map[*File][]FuncInfo, len(edits)),
			Sizeofs:  make(map[Expr]int64),
			PtrArith: make(map[*Binary]Expr),
		},
		laying: make(map[string]bool),
	}
	var changed []*File
	for _, f := range files {
		e, ok := edits[f.Path]
		if !ok {
			continue
		}
		changed = append(changed, f)
		c.info.Uses[f] = make([]int32, f.NumIdents)
		c.info.FuncInfo[f] = make([]FuncInfo, f.NumBodies)
		for _, name := range e.Removed {
			fo := c.info.Funcs[name]
			delete(c.info.Funcs, name)
			c.info.Objects[fo.Index] = nil
			c.free = append(c.free, fo.Index)
		}
	}
	// The added signatures, as pass 3 of Check declares them.
	for _, f := range changed {
		c.enter(f)
		for _, fd := range edits[f.Path].Added {
			c.declareFunc(fd)
		}
	}
	if len(c.info.Structs) != len(prev.Structs) || len(c.info.Typedefs) != len(prev.Typedefs) {
		return nil
	}
	for _, f := range changed {
		c.enter(f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *VarDecl:
				if d.Init != nil {
					c.checkExpr(d.Init)
				}
			case *FuncDecl:
				if d.Body != nil {
					c.redefine(d)
					c.checkFuncBody(d)
				}
			}
		}
	}
	return c.info
}

// redefine makes the object of a function the changed file keeps
// defining name its new definition d. The object is replaced, not
// written, as prev shares it; without the replacement it would keep
// the file's earlier AST alive for as long as the function lives.
func (c *checker) redefine(d *FuncDecl) {
	if fo := c.info.Funcs[d.Name]; fo.Decl != d {
		n := *fo
		n.Decl = d
		c.info.Funcs[d.Name], c.info.Objects[n.Index] = &n, &n
	}
}

func copyStrMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
