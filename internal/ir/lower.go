package ir

import (
	"strconv"

	"repro/internal/cminor"
	"repro/internal/slab"
)

// InitFuncName is the synthetic function holding global variable
// initializers. The call-graph phase treats it as reachable alongside
// the program entry.
const InitFuncName = "__global_init"

// Lower converts checked files into an IR program. The checker's Info
// must come from cminor.Check over exactly these files. It is the
// batch composition of the per-file half (LowerFile) and the linking
// half; incremental analysis calls LowerFile and Link separately,
// reusing cached fragments for unchanged files. The fragments Lower
// makes are private to it, so it links them in place rather than
// cloning them as Link does.
func Lower(info *cminor.Info, files ...*cminor.File) *Program {
	frags := make([]*Fragment, len(files))
	for i, f := range files {
		frags[i] = LowerFile(info, f)
	}
	return link(info, frags)
}

// builder lowers one file into a fragment. Variables are appended to
// *sink (InitVars while lowering global initializers, BodyVars inside
// functions) with fragment-local IDs; linking assigns program-wide
// identity. The fragment's Vars and Instrs come from the builder's
// slabs, so they live and die with the fragment.
type builder struct {
	frag *Fragment
	info *cminor.Info
	uses []any // info.Uses table of the file being lowered
	fn   *Func
	sink *[]*Var
	// fi and fnVars describe the current function: fnVars[i] is the
	// Var of the parameter or local whose VarObject.Index is i.
	fi     *cminor.FuncInfo
	fnVars []*Var
	// nextLocal is the position in fi.Locals of the next local
	// declaration statement to lower.
	nextLocal int
	tmps      int

	varSlab   []Var
	instrSlab []Instr
}

// newVar appends a variable to *sink. Its ID is its index in the
// fragment's InitVars followed by BodyVars (initializers are lowered
// before any body, so the two lists never grow together).
func (b *builder) newVar(name string, fn *Func) *Var {
	v := slab.New(&b.varSlab)
	*v = Var{ID: len(b.frag.InitVars) + len(b.frag.BodyVars), Name: name, Func: fn}
	*b.sink = append(*b.sink, v)
	return v
}

func (b *builder) temp() *Var {
	b.tmps++
	v := b.newVar("t"+strconv.Itoa(b.tmps), b.fn)
	v.Temp = true
	return v
}

// globalProxy returns the fragment's name-keyed stand-in for a program
// global. Proxies live only in frag.Globals (never in a var sink);
// Link replaces them with canonical globals.
func (b *builder) globalProxy(name string) *Var {
	if v, ok := b.frag.Globals[name]; ok {
		return v
	}
	v := &Var{Name: name, Global: true}
	b.frag.Globals[name] = v
	return v
}

// emit copies an instruction into the builder's slab and appends it
// to the current function (or the file's initializers).
func (b *builder) emit(lit Instr) *Instr {
	in := slab.New(&b.instrSlab)
	*in = lit
	in.Func = b.fn
	if b.fn == nil {
		b.frag.Init = append(b.frag.Init, in)
	} else {
		b.fn.Instrs = append(b.fn.Instrs, in)
	}
	return in
}

func varOpd(v *Var) Operand    { return Operand{Kind: VarOpd, Var: v} }
func constOpd(c int64) Operand { return Operand{Kind: ConstOpd, C: c} }

func (b *builder) lowerFunc(fd *cminor.FuncDecl) {
	fi := b.info.FuncInfo[fd]
	fn := &Func{Name: fd.Name, Decl: fd, Variadic: fd.Variadic}
	if _, isVoid := b.info.Funcs[fd.Name].Type.Ret.(*cminor.VoidType); !isVoid {
		fn.Ret = true
	}
	b.frag.Funcs = append(b.frag.Funcs, fn)
	b.fn, b.fi, b.nextLocal = fn, fi, 0
	b.fnVars = b.fnVars[:0]
	fn.Params = make([]*Var, 0, len(fi.Params))
	for _, p := range fi.Params {
		v := b.newVar(p.Name, fn)
		v.Param = true
		v.PointerLike = cminor.IsPointer(p.Type)
		b.fnVars = append(b.fnVars, v)
		fn.Params = append(fn.Params, v)
	}
	fn.RetVal = b.newVar("__ret", fn)
	for _, l := range fi.Locals {
		v := b.newVar(l.Name, fn)
		v.PointerLike = cminor.IsPointer(l.Type)
		b.fnVars = append(b.fnVars, v)
	}
	b.stmt(fd.Body)
	b.fn, b.fi = nil, nil
}

// --- statements ---

func (b *builder) stmt(s cminor.Stmt) {
	switch s := s.(type) {
	case *cminor.Block:
		for _, st := range s.Stmts {
			b.stmt(st)
		}
	case *cminor.DeclStmt:
		v := b.localVar(s.Decl)
		if s.Decl.Init != nil {
			if v == nil {
				// A checker gap: lower into an isolated temp rather
				// than crash.
				v = b.temp()
			}
			src := b.expr(s.Decl.Init)
			b.emit(Instr{Op: Assign, Dst: varOpd(v), Src: src, Pos: s.Decl.Pos})
		}
	case *cminor.ExprStmt:
		b.expr(s.X)
	case *cminor.If:
		b.expr(s.Cond)
		b.stmt(s.Then)
		if s.Else != nil {
			b.stmt(s.Else)
		}
	case *cminor.While:
		b.expr(s.Cond)
		b.stmt(s.Body)
	case *cminor.For:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Cond != nil {
			b.expr(s.Cond)
		}
		b.stmt(s.Body)
		if s.Post != nil {
			b.expr(s.Post)
		}
	case *cminor.Switch:
		b.expr(s.Cond)
		for _, cs := range s.Cases {
			for _, v := range cs.Values {
				b.expr(v)
			}
			for _, st := range cs.Body {
				b.stmt(st)
			}
		}
	case *cminor.Return:
		src := Operand{}
		if s.X != nil {
			src = b.expr(s.X)
			b.emit(Instr{Op: Assign, Dst: varOpd(b.fn.RetVal), Src: src, Pos: s.Pos})
		}
		b.emit(Instr{Op: Ret, Src: varOpd(b.fn.RetVal), Pos: s.Pos})
	case *cminor.Break, *cminor.Continue, *cminor.Empty:
	}
}

// localVar returns the *Var of a local declaration, or nil if the
// checker did not record it. The checker lists a function's locals in
// FuncInfo.Locals in the order their declaration statements are
// lowered, so a cursor finds each one; same-name locals in nested
// blocks stay distinct.
func (b *builder) localVar(d *cminor.VarDecl) *Var {
	if k := b.nextLocal; k < len(b.fi.Locals) && b.fi.Locals[k].Decl == d {
		b.nextLocal++
		return b.fnVars[len(b.fi.Params)+k]
	}
	return nil
}

// varOf returns the *Var of a resolved variable: the current
// function's parameter or local, or the fragment's proxy for a global.
func (b *builder) varOf(obj *cminor.VarObject) *Var {
	if obj.Global {
		return b.globalProxy(obj.Name)
	}
	return b.fnVars[obj.Index]
}

// --- expressions ---

// place describes an assignable location: either a variable or a
// memory cell [base+off].
type place struct {
	v    *Var    // non-nil for variable places
	base Operand // memory places
	off  int64
}

func (b *builder) expr(e cminor.Expr) Operand {
	switch e := e.(type) {
	case *cminor.Ident:
		switch obj := b.uses[e.ID].(type) {
		case *cminor.VarObject:
			v := b.varOf(obj)
			// Array-typed variables decay to a pointer to their
			// storage.
			if _, isArr := obj.Type.(*cminor.ArrayType); isArr {
				t := b.temp()
				v.AddrTaken = true
				b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(v), Pos: e.Pos})
				return varOpd(t)
			}
			return varOpd(v)
		case *cminor.FuncObject:
			return Operand{Kind: FuncOpd, Fn: obj.Name}
		case *cminor.EnumConst:
			return constOpd(obj.Value)
		}
		return constOpd(0)
	case *cminor.IntLit:
		return constOpd(e.V)
	case *cminor.StrLit:
		idx := len(b.frag.Strings)
		b.frag.Strings = append(b.frag.Strings, StringLit{Value: e.V, Pos: e.Pos})
		t := b.temp()
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: Operand{Kind: StringOpd, C: int64(idx)}, Pos: e.Pos})
		return varOpd(t)
	case *cminor.Null:
		return Operand{Kind: NullOpd}
	case *cminor.Unary:
		return b.unary(e)
	case *cminor.Postfix:
		// x++ / x-- : value stays in the same abstract object.
		return b.expr(e.X)
	case *cminor.Binary:
		return b.binary(e)
	case *cminor.AssignExpr:
		return b.assign(e)
	case *cminor.CondExpr:
		b.expr(e.Cond)
		t := b.temp()
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e.Then), Pos: e.Pos})
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e.Else), Pos: e.Pos})
		return varOpd(t)
	case *cminor.Call:
		return b.call(e)
	case *cminor.Index, *cminor.FieldAccess:
		return b.readPlace(b.lvalue(e), cminor.ExprPos(e))
	case *cminor.Cast:
		// Casts (including int<->pointer) are value-preserving.
		return b.expr(e.X)
	case *cminor.SizeofType:
		if sz, ok := b.info.Sizeofs[e]; ok {
			return constOpd(sz)
		}
		return constOpd(8)
	case *cminor.SizeofExpr:
		b.expr(e.X)
		if sz, ok := b.info.Sizeofs[e]; ok {
			return constOpd(sz)
		}
		return constOpd(8)
	}
	return constOpd(0)
}

func (b *builder) unary(e *cminor.Unary) Operand {
	switch e.Op {
	case cminor.Star:
		base := b.expr(e.X)
		t := b.temp()
		b.emit(Instr{Op: Load, Dst: varOpd(t), Base: base, Off: 0, Pos: e.Pos})
		return varOpd(t)
	case cminor.Amp:
		return b.addressOf(e.X, e.Pos)
	case cminor.Inc, cminor.Dec, cminor.Minus, cminor.Tilde, cminor.Not:
		// Arithmetic/logical unaries preserve the abstract value for
		// the weakly-typed analysis (pointer arithmetic keeps the
		// object, Section 5.5).
		return b.expr(e.X)
	}
	return constOpd(0)
}

// addressOf lowers &x for the supported lvalue shapes.
func (b *builder) addressOf(x cminor.Expr, pos cminor.Pos) Operand {
	pl := b.lvalue(x)
	if pl.v != nil {
		pl.v.AddrTaken = true
		t := b.temp()
		b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(pl.v), Pos: pos})
		return varOpd(t)
	}
	if pl.off == 0 {
		return pl.base
	}
	t := b.temp()
	b.emit(Instr{Op: FieldAddr, Dst: varOpd(t), Base: pl.base, Off: pl.off, Pos: pos})
	return varOpd(t)
}

func (b *builder) binary(e *cminor.Binary) Operand {
	x := b.expr(e.X)
	y := b.expr(e.Y)
	// Pointer arithmetic: the result stays within the pointed-to
	// object (constant offsets beyond fields are not tracked —
	// the documented Section 5.5 unsoundness).
	if p, ok := b.info.PtrArith[e]; ok {
		if p == e.X {
			return x
		}
		return y
	}
	// Comparisons and integer arithmetic: results are scalar; merge
	// both sides so int<->pointer laundering via arithmetic stays
	// visible to the weakly-typed analysis.
	t := b.temp()
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: x, Pos: e.Pos})
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: y, Pos: e.Pos})
	return varOpd(t)
}

func (b *builder) assign(e *cminor.AssignExpr) Operand {
	src := b.expr(e.RHS)
	if e.Op != cminor.Assign {
		// Compound assignment: merge old and new values.
		t := b.temp()
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: src, Pos: e.Pos})
		old := b.readPlace(b.lvalue(e.LHS), e.Pos)
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: old, Pos: e.Pos})
		src = varOpd(t)
	}
	pl := b.lvalue(e.LHS)
	if pl.v != nil {
		b.emit(Instr{Op: Assign, Dst: varOpd(pl.v), Src: src, Pos: e.Pos})
	} else {
		b.emit(Instr{Op: Store, Base: pl.base, Off: pl.off, Src: src, Pos: e.Pos})
	}
	return src
}

func (b *builder) call(e *cminor.Call) Operand {
	var callee Operand
	if id, ok := e.Fun.(*cminor.Ident); ok {
		if fo, ok := b.uses[id.ID].(*cminor.FuncObject); ok {
			callee = Operand{Kind: FuncOpd, Fn: fo.Name}
		}
	}
	if callee.IsNone() {
		callee = b.expr(e.Fun)
	}
	args := make([]Operand, len(e.Args))
	for i, a := range e.Args {
		args[i] = b.expr(a)
	}
	dst := b.temp()
	b.emit(Instr{Op: Call, Dst: varOpd(dst), Callee: callee, Args: args, Pos: e.Pos})
	return varOpd(dst)
}

// lvalue resolves an assignable expression to a place.
func (b *builder) lvalue(e cminor.Expr) place {
	switch e := e.(type) {
	case *cminor.Ident:
		if obj, ok := b.uses[e.ID].(*cminor.VarObject); ok {
			return place{v: b.varOf(obj)}
		}
	case *cminor.Unary:
		if e.Op == cminor.Star {
			return place{base: b.expr(e.X)}
		}
	case *cminor.Index:
		// Arrays collapse to offset 0 (index-insensitive).
		return place{base: b.expr(e.X)}
	case *cminor.FieldAccess:
		fi, ok := b.info.Fields[e]
		off := int64(0)
		if ok {
			off = fi.Field.Offset
		}
		if e.Arrow {
			return place{base: b.expr(e.X), off: off}
		}
		inner := b.lvalue(e.X)
		if inner.v != nil {
			inner.v.AddrTaken = true
			t := b.temp()
			b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(inner.v), Pos: e.Pos})
			return place{base: varOpd(t), off: off}
		}
		return place{base: inner.base, off: inner.off + off}
	case *cminor.Cast:
		return b.lvalue(e.X)
	}
	// Not an lvalue we track: evaluate for effect, park in a temp.
	t := b.temp()
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e), Pos: cminor.ExprPos(e)})
	return place{v: t}
}

// readPlace loads the value stored at a place.
func (b *builder) readPlace(pl place, pos cminor.Pos) Operand {
	if pl.v != nil {
		return varOpd(pl.v)
	}
	t := b.temp()
	b.emit(Instr{Op: Load, Dst: varOpd(t), Base: pl.base, Off: pl.off, Pos: pos})
	return varOpd(t)
}
