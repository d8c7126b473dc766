package ir

import (
	"sort"

	"repro/internal/cminor"
)

// Fragment is the lowered IR of a single file: the per-file half of
// Lower. Fragments carry no program-wide identity — variable and
// instruction IDs are unassigned, global references are name-keyed
// proxies, and string literal indices are fragment-local — so a
// fragment depends only on its own file's AST and the declaration
// environment (types, layouts, signatures). As long as that
// environment is unchanged (see cminor.DeclSignature), a fragment can
// be cached by file digest and relinked into any number of programs.
// A fragment variable's ID is its index in InitVars followed by
// BodyVars. Link never mutates a fragment: it copies every Var and
// Instr into per-program slabs before assigning program-wide IDs, so
// one fragment may be shared by concurrent links.
type Fragment struct {
	// Path is the source file the fragment was lowered from.
	Path string
	// Init holds the file's global-initializer instructions, and
	// InitVars the temporaries they use. Instr.Func is nil here;
	// linking points them at the synthetic init function.
	Init     []*Instr
	InitVars []*Var
	// Funcs are the file's defined functions in declaration order.
	// BodyVars lists every function-local variable (parameters, return
	// slots, locals, temporaries) in creation order; each knows its
	// fragment Func.
	Funcs    []*Func
	BodyVars []*Var
	// Globals are name-keyed proxy variables standing in for program
	// globals; linking replaces every reference with the canonical
	// global and folds the proxy's AddrTaken flag into it.
	Globals map[string]*Var
	// Strings are the file's string literal sites: the first
	// InitStrings entries come from global initializers, the rest from
	// function bodies. A StringOpd's C indexes this slice until
	// linking rebases it.
	Strings     []StringLit
	InitStrings int
}

// LowerFile lowers one checked file into a reusable fragment. info
// must cover the file (a full check, or an incremental check that
// re-checked it).
func LowerFile(info *cminor.Info, f *cminor.File) *Fragment {
	b := &builder{
		frag: &Fragment{Path: f.Path, Globals: make(map[string]*Var)},
		info: info,
		uses: info.Uses[f],
	}
	// Global initializers first, mirroring Lower's historical order.
	// Initializers of names the checker did not register as globals are
	// dropped, as the single-pass Lower always did.
	b.sink = &b.frag.InitVars
	for _, d := range f.Decls {
		if vd, ok := d.(*cminor.VarDecl); ok && vd.Init != nil {
			if _, ok := info.Globals[vd.Name]; ok {
				src := b.expr(vd.Init)
				b.emit(Instr{Op: Assign, Dst: varOpd(b.globalProxy(vd.Name)), Src: src, Pos: vd.Pos})
			}
		}
	}
	b.frag.InitStrings = len(b.frag.Strings)
	// Function bodies.
	b.sink = &b.frag.BodyVars
	for _, d := range f.Decls {
		if fd, ok := d.(*cminor.FuncDecl); ok && fd.Body != nil {
			b.lowerFunc(fd)
		}
	}
	return b.frag
}

// numInstrs counts the fragment's instructions, initializers included.
func (fr *Fragment) numInstrs() int {
	n := len(fr.Init)
	for _, fn := range fr.Funcs {
		n += len(fn.Instrs)
	}
	return n
}

// Link assembles fragments (in file order) into one Program without
// mutating them: it links copies (see cloneFragments), so fragments
// cached by a snapshot may be shared by concurrent links. Reports are
// byte-identical whether a fragment was freshly lowered or replayed
// from a cache.
func Link(info *cminor.Info, frags []*Fragment) *Program {
	return link(info, cloneFragments(frags))
}

// cloneFragments deep-copies fragments for link to adopt. Vars and
// Instrs go into one slab each for the whole program, and operands are
// pointed at the copies by fragment-local variable ID. Global proxies
// and string literal tables are shared with the originals: link only
// reads them.
func cloneFragments(frags []*Fragment) []*Fragment {
	nVars, nInstrs := 0, 0
	for _, fr := range frags {
		nVars += len(fr.InitVars) + len(fr.BodyVars)
		nInstrs += fr.numInstrs()
	}
	vars := make([]Var, nVars)
	instrs := make([]Instr, nInstrs)
	out := make([]*Fragment, len(frags))
	for i, fr := range frags {
		local := vars[:len(fr.InitVars)+len(fr.BodyVars)]
		vars = vars[len(local):]
		nf := &Fragment{
			Path:        fr.Path,
			Funcs:       make([]*Func, len(fr.Funcs)),
			InitVars:    make([]*Var, len(fr.InitVars)),
			BodyVars:    make([]*Var, len(fr.BodyVars)),
			Globals:     fr.Globals,
			Strings:     fr.Strings,
			InitStrings: fr.InitStrings,
		}
		funcs := make(map[*Func]*Func, len(fr.Funcs))
		for k, fn := range fr.Funcs {
			c := *fn
			nf.Funcs[k] = &c
			funcs[fn] = &c
		}
		copyVars := func(dst, src []*Var) {
			for k, v := range src {
				c := &local[v.ID]
				*c = *v
				c.Func = funcs[v.Func]
				dst[k] = c
			}
		}
		copyVars(nf.InitVars, fr.InitVars)
		copyVars(nf.BodyVars, fr.BodyVars)
		opd := func(o Operand) Operand {
			if o.Kind == VarOpd && !o.Var.Global {
				o.Var = &local[o.Var.ID]
			}
			return o
		}
		copyInstrs := func(src []*Instr) []*Instr {
			dst := make([]*Instr, len(src))
			for k, in := range src {
				c := &instrs[k]
				*c = *in
				c.Dst, c.Src, c.Base, c.Callee = opd(in.Dst), opd(in.Src), opd(in.Base), opd(in.Callee)
				if len(in.Args) > 0 {
					c.Args = make([]Operand, len(in.Args))
					for a, o := range in.Args {
						c.Args[a] = opd(o)
					}
				}
				dst[k] = c
			}
			instrs = instrs[len(src):]
			return dst
		}
		nf.Init = copyInstrs(fr.Init)
		for k, fn := range fr.Funcs {
			c := nf.Funcs[k]
			c.Instrs = copyInstrs(fn.Instrs)
			c.Params = make([]*Var, len(fn.Params))
			for p, v := range fn.Params {
				c.Params[p] = &local[v.ID]
			}
			if fn.RetVal != nil {
				c.RetVal = &local[fn.RetVal.ID]
			}
		}
		out[i] = nf
	}
	return out
}

// link assembles fragments the caller owns into one Program, adopting
// their Vars, Instrs and Funcs: it assigns program-wide variable and
// instruction IDs, resolves global proxies to canonical globals, and
// rebases string indices, all in place. The instruction order matches
// the historical single-pass Lower exactly: every fragment's
// initializer segment first (file order), then every fragment's
// function bodies.
func link(info *cminor.Info, frags []*Fragment) *Program {
	nVars, nInstrs, nInit, nStrings := len(info.Globals), 0, 0, 0
	for _, fr := range frags {
		nVars += len(fr.InitVars) + len(fr.BodyVars)
		nInstrs += fr.numInstrs()
		nInit += len(fr.Init)
		nStrings += len(fr.Strings)
	}
	prog := &Program{
		Funcs:   make(map[string]*Func),
		Externs: make(map[string]*cminor.FuncObject),
		Globals: make(map[string]*Var, len(info.Globals)),
		Strings: make([]StringLit, 0, nStrings),
		Vars:    make([]*Var, 0, nVars),
		Instrs:  make([]*Instr, 0, nInstrs),
		Info:    info,
	}
	addVar := func(v *Var) *Var {
		v.ID = len(prog.Vars)
		prog.Vars = append(prog.Vars, v)
		return v
	}
	// Canonical globals in sorted name order (variable IDs carry no
	// analysis meaning; sorting makes linking deterministic).
	names := make([]string, 0, len(info.Globals))
	for name := range info.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog.Globals[name] = addVar(&Var{
			Name: name, Global: true,
			PointerLike: cminor.IsPointer(info.Globals[name].Type),
		})
	}
	for name, fo := range info.Funcs {
		if fo.Decl == nil || fo.Decl.Body == nil {
			prog.Externs[name] = fo
		}
	}
	// globalFor resolves a fragment proxy to the canonical global,
	// creating one for checker-fallback names (undeclared identifiers
	// lowered as untyped globals) and accumulating AddrTaken.
	globalFor := func(p *Var) *Var {
		v, ok := prog.Globals[p.Name]
		if !ok {
			v = addVar(&Var{Name: p.Name, Global: true})
			prog.Globals[p.Name] = v
		}
		if p.AddrTaken {
			v.AddrTaken = true
		}
		return v
	}
	// Strings: initializer literals in file order, then body literals
	// in file order — the order the single-pass Lower emitted them.
	initBase := make([]int, len(frags))
	bodyBase := make([]int, len(frags))
	for i, fr := range frags {
		initBase[i] = len(prog.Strings)
		prog.Strings = append(prog.Strings, fr.Strings[:fr.InitStrings]...)
	}
	for i, fr := range frags {
		bodyBase[i] = len(prog.Strings) - fr.InitStrings
		prog.Strings = append(prog.Strings, fr.Strings[fr.InitStrings:]...)
	}

	resolve := func(o *Operand, i int) {
		switch o.Kind {
		case VarOpd:
			if o.Var.Global {
				o.Var = globalFor(o.Var)
			}
		case StringOpd:
			if o.C < int64(frags[i].InitStrings) {
				o.C += int64(initBase[i])
			} else {
				o.C += int64(bodyBase[i])
			}
		}
	}
	adopt := func(in *Instr, i int, fn *Func) {
		in.ID = len(prog.Instrs)
		in.Func = fn
		resolve(&in.Dst, i)
		resolve(&in.Src, i)
		resolve(&in.Base, i)
		resolve(&in.Callee, i)
		for k := range in.Args {
			resolve(&in.Args[k], i)
		}
		prog.Instrs = append(prog.Instrs, in)
	}

	// Pass 1: the synthetic initializer function.
	initFn := &Func{Name: InitFuncName, Instrs: make([]*Instr, 0, nInit)}
	for i, fr := range frags {
		for _, v := range fr.InitVars {
			v.Func = initFn
			addVar(v)
		}
		for _, in := range fr.Init {
			adopt(in, i, initFn)
			initFn.Instrs = append(initFn.Instrs, in)
		}
	}
	if len(initFn.Instrs) > 0 {
		prog.Funcs[InitFuncName] = initFn
	}
	// Pass 2: function bodies, file order then declaration order.
	for _, fr := range frags {
		for _, fn := range fr.Funcs {
			prog.Funcs[fn.Name] = fn
		}
	}
	for i, fr := range frags {
		for _, v := range fr.BodyVars {
			addVar(v)
		}
		for _, fn := range fr.Funcs {
			for _, in := range fn.Instrs {
				adopt(in, i, fn)
			}
		}
	}
	return prog
}
