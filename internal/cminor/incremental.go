package cminor

// This file is the checker's incremental seam. A re-analysis that
// changed only function bodies does not need to re-resolve the world:
// the declaration environment (structs, typedefs, enums, globals,
// function signatures) is unchanged, so the facts for unchanged files
// stay valid and only the changed files' bodies need re-checking.
//
// The contract is textual: SameDecls compares two versions of a file
// outside their function bodies, byte for byte, using the body spans
// the parser recorded. Equal text outside the bodies parses to equal
// declarations, because a body cannot change the parser state that
// file-scope parsing reads: typedef names are registered only at file
// scope, and the anonymous-type counter moves inside a body only when
// a type is defined there, which makes a file ineligible. Checking
// only the changed bodies against the previous environment then gives
// the same answers as a full re-check. A body's span runs from its "{"
// to the next token, so it takes in the comments right after its "}";
// a comment or whitespace edit anywhere else outside the bodies fails
// the comparison, and the caller takes the full check, which is still
// correct.
//
// CheckIncremental returns a *partial* Info: the per-name environment
// maps (Structs, Typedefs, Funcs, Globals, Enums) are complete copies,
// and Objects extends the previous table, but the per-AST-node facts
// (the per-file Uses and FuncInfo tables, and Fields, Sizeofs,
// PtrArith) cover only the re-checked declarations. That is exactly
// what the IR lowering needs, because unchanged files are not
// re-lowered either — their cached IR fragments are reused (see
// ir.Fragment). Nothing downstream of lowering reads the per-node
// facts.

// SameDecls reports whether cur, parsed from src, declares exactly
// what old, parsed from oldSrc, declares, so that a check may reuse
// old's declaration environment for cur. Both must have parsed
// without errors. It holds
// when neither file defines a struct or enum inside a function body
// or a global initializer (re-checking such a definition against an
// environment that already laid it out would be a spurious
// redefinition), both define the same number of functions, and the
// text before, between and after the bodies is byte-identical.
// Global initializers and parameter names are outside the bodies, so
// an edit to either fails the comparison.
func SameDecls(old *File, oldSrc string, cur *File, src string) bool {
	if old.bodyTypeDefs || cur.bodyTypeDefs {
		return false
	}
	var oldAt, at int32
	i, j := 0, 0
	for {
		var o, c *FuncDecl
		o, i = nextBody(old.Decls, i)
		c, j = nextBody(cur.Decls, j)
		if o == nil || c == nil {
			return o == c && oldSrc[oldAt:] == src[at:]
		}
		if oldSrc[oldAt:o.bodyOff] != src[at:c.bodyOff] {
			return false
		}
		oldAt, at = o.bodyEnd, c.bodyEnd
	}
}

// nextBody returns the first function definition in decls[i:] and
// the index after it, or nil when there is none.
func nextBody(decls []Decl, i int) (*FuncDecl, int) {
	for ; i < len(decls); i++ {
		if fd, ok := decls[i].(*FuncDecl); ok && fd.Body != nil {
			return fd, i + 1
		}
	}
	return nil, i
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
//
// Preconditions, enforced by the caller (see core's check phase):
// prev must be error-free, must cover the same path set, SameDecls
// must hold for every changed file against its previous version, and
// prev must be free of implicit function declarations
// (HasImplicitFuncs).
//
// The returned Info never aliases prev's maps — prev stays valid as
// an immutable base, so several deltas can be checked
// against it concurrently. The per-name maps are complete copies;
// Objects shares prev's table up to its length, so appending a new
// object copies it; Uses and FuncInfo have tables only for each
// changed file, and the other per-node fact maps hold entries only for
// changed files' global initializers and function bodies. Retained
// objects (struct layouts, function and global objects) are shared,
// never mutated.
func CheckIncremental(prev *Info, files []*File, changed map[string]bool) *Info {
	n := len(prev.Objects)
	c := &checker{
		info: &Info{
			Uses:     make(map[*File][]int32, len(changed)),
			Objects:  prev.Objects[:n:n],
			Fields:   make(map[*FieldAccess]FieldInfo),
			Structs:  copyStrMap(prev.Structs),
			Typedefs: copyStrMap(prev.Typedefs),
			Funcs:    copyStrMap(prev.Funcs),
			Globals:  copyStrMap(prev.Globals),
			Enums:    copyStrMap(prev.Enums),
			FuncInfo: make(map[*File][]FuncInfo, len(changed)),
			Sizeofs:  make(map[Expr]int64),
			PtrArith: make(map[*Binary]Expr),
		},
		laying: make(map[string]bool),
	}
	for _, f := range files {
		if !changed[f.Path] {
			continue
		}
		c.info.Uses[f] = make([]int32, f.NumIdents)
		c.info.FuncInfo[f] = make([]FuncInfo, f.NumBodies)
		c.enter(f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *VarDecl:
				if d.Init != nil {
					c.checkExpr(d.Init)
				}
			case *FuncDecl:
				if d.Body != nil {
					c.checkFuncBody(d)
				}
			}
		}
	}
	return c.info
}

func copyStrMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
