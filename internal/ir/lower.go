package ir

import (
	"slices"

	"repro/internal/cminor"
)

// InitFuncName is the synthetic function holding global variable
// initializers. The call-graph phase treats it as reachable alongside
// the program entry.
const InitFuncName = "__global_init"

// Lower converts checked files into an IR program. The checker's Info
// must come from cminor.Check over exactly these files. It is the
// batch composition of the per-file half (LowerFile) and Link;
// incremental analysis calls them separately, reusing cached fragments
// for unchanged files.
func Lower(info *cminor.Info, files ...*cminor.File) *Program {
	frags := make([]*Fragment, len(files))
	for i, f := range files {
		frags[i] = LowerFile(info, f)
	}
	return Link(info, frags)
}

// LowerFile lowers one checked file into a reusable fragment. info
// must cover the file (a full check, or an incremental check that
// re-checked it). The instruction table grows a chunk at a time and
// only its last chunk is trimmed; the function and name tables are
// sized from the file's definitions.
func LowerFile(info *cminor.Info, f *cminor.File) *Fragment {
	funcs := info.FuncInfo[f]
	named := 0
	for i := range funcs {
		named += len(funcs[i].Params) + 1 + len(funcs[i].Locals)
	}
	// Lowering makes about 0.6 variables per identifier on the paper
	// corpus; a table sized from that seldom regrows.
	b := &builder{
		frag:     &Fragment{Path: f.Path, funcs: make([]Func, 0, f.NumBodies)},
		info:     info,
		uses:     info.Uses[f],
		funcs:    funcs,
		vars:     make([]Var, 0, f.NumIdents*5/8+16),
		varNames: make([]string, 0, named),
		slots:    make(map[string]int32),
		names:    make(map[string]int32),
	}
	// Global initializers first, mirroring Lower's historical order.
	// Initializers of names the checker did not register as globals are
	// dropped, as the single-pass Lower always did.
	for _, d := range f.Decls {
		if vd, ok := d.(*cminor.VarDecl); ok && vd.Init != nil {
			if _, ok := info.Globals[vd.Name]; ok {
				src := b.expr(vd.Init)
				b.emit(Instr{Op: Assign, Dst: varOpd(b.globalSlot(vd.Name)), Src: src}, vd.Pos)
			}
		}
	}
	b.frag.numInit = b.frag.instrs.len()
	b.frag.numInitVars = int32(len(b.vars))
	b.frag.initStrings = len(b.frag.strings)
	// Function bodies.
	for _, d := range f.Decls {
		if fd, ok := d.(*cminor.FuncDecl); ok && fd.Body != nil {
			b.lowerFunc(fd)
		}
	}
	if n := len(b.frag.instrs); n > 0 {
		b.frag.instrs[n-1] = fit(b.frag.instrs[n-1])
	}
	b.frag.vars, b.frag.varNames, b.frag.args = fit(b.vars), b.varNames, b.args
	return b.frag
}

// fit returns s, or a copy without its spare capacity when that is
// more than an eighth of its length, so a fragment holds little more
// than its tables.
func fit[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/8 {
		return slices.Clone(s)
	}
	return s
}

// builder lowers one file into a fragment, numbering everything
// fragment-locally; Link assigns program-wide identity.
type builder struct {
	frag *Fragment
	// vars, varNames and args become the fragment's tables.
	vars     []Var
	varNames []string
	args     []Operand
	info     *cminor.Info
	// uses and funcs are the info.Uses and info.FuncInfo tables of
	// the file being lowered.
	uses  []int32
	funcs []cminor.FuncInfo
	// fi and fnVars describe the current function: fnVars[i] is the
	// variable of the parameter or local whose VarObject.Index is i.
	fi     *cminor.FuncInfo
	fnVars []int32
	// nextLocal is the position in fi.Locals of the next local
	// declaration statement to lower.
	nextLocal int
	// slots and names number the fragment's global slots and FuncOpd
	// names.
	slots map[string]int32
	names map[string]int32
	// argStack holds the arguments of the calls being lowered.
	argStack []Operand
}

// newVar appends a named variable and returns its fragment-local
// index.
func (b *builder) newVar(name string, v Var) int32 {
	b.varNames = append(b.varNames, name)
	return b.addVar(v)
}

// temp appends a temporary, which is named by its ordinal (see
// Fragment.varName). Initializers are lowered before any body, so
// initializer temporaries come first.
func (b *builder) temp() int32 { return b.addVar(Var{Temp: true}) }

func (b *builder) addVar(v Var) int32 {
	b.vars = append(b.vars, v)
	return int32(len(b.vars) - 1)
}

// globalSlot returns the operand index of the fragment's slot for a
// program global; Link maps the slot to the canonical global.
func (b *builder) globalSlot(name string) int32 {
	s, ok := b.slots[name]
	if !ok {
		s = int32(len(b.frag.globals))
		b.frag.globals = append(b.frag.globals, globalSlot{name: name})
		b.slots[name] = s
	}
	return -1 - s
}

// takeAddr marks a variable (a local index or a global slot) as
// address-taken.
func (b *builder) takeAddr(v int32) {
	if v < 0 {
		b.frag.globals[-1-v].addrTaken = true
	} else {
		b.vars[v].AddrTaken = true
	}
}

// emit appends an instruction to the current function (or the file's
// initializers).
func (b *builder) emit(in Instr, pos cminor.Pos) {
	in.Pos = pos
	b.frag.instrs.add(in)
}

// emitAt emits a Load, Store or FieldAddr at byte offset off, which
// goes to the constant table when it does not fit in Instr.Off.
func (b *builder) emitAt(in Instr, off int64, pos cminor.Pos) {
	if in.Off = int32(off); int64(in.Off) != off {
		in.Off, in.Op = b.wideConst(off), in.Op|wideOff
	}
	b.emit(in, pos)
}

// wideConst adds a constant to the constant table and returns its
// index.
func (b *builder) wideConst(c int64) int32 {
	b.frag.consts = append(b.frag.consts, c)
	return int32(len(b.frag.consts) - 1)
}

func varOpd(v int32) Operand { return Operand{Kind: VarOpd, V: v} }

func (b *builder) constOpd(c int64) Operand {
	if c == int64(int32(c)) {
		return Operand{Kind: ConstOpd, V: int32(c)}
	}
	return Operand{Kind: bigConstOpd, V: b.wideConst(c)}
}

func (b *builder) funcOpd(name string) Operand {
	k, ok := b.names[name]
	if !ok {
		k = int32(len(b.frag.names))
		b.frag.names = append(b.frag.names, name)
		b.names[name] = k
	}
	return Operand{Kind: FuncOpd, V: k}
}

func (b *builder) lowerFunc(fd *cminor.FuncDecl) {
	fi := &b.funcs[fd.Index]
	fn := Func{Name: fd.Name, Decl: fd, Variadic: fd.Variadic, names: int32(len(b.varNames))}
	if _, isVoid := b.info.Funcs[fd.Name].Type.Ret.(*cminor.VoidType); !isVoid {
		fn.Ret = true
	}
	b.fi, b.nextLocal = fi, 0
	b.fnVars = b.fnVars[:0]
	fn.First = b.frag.instrs.len()
	fn.VarFirst = int32(len(b.vars))
	fn.Params, fn.NumParams = fn.VarFirst, len(fi.Params)
	for _, p := range fi.Params {
		b.fnVars = append(b.fnVars, b.newVar(p.Name, Var{Param: true, PointerLike: cminor.IsPointer(p.Type)}))
	}
	fn.RetVal = b.newVar("__ret", Var{})
	for _, l := range fi.Locals {
		b.fnVars = append(b.fnVars, b.newVar(l.Name, Var{PointerLike: cminor.IsPointer(l.Type)}))
	}
	fn.temps = int32(len(b.vars))
	b.frag.funcs = append(b.frag.funcs, fn)
	b.stmt(fd.Body)
	f := &b.frag.funcs[len(b.frag.funcs)-1]
	f.End = b.frag.instrs.len()
	f.VarEnd = int32(len(b.vars))
	b.fi = nil
}

// --- statements ---

func (b *builder) stmt(s cminor.Stmt) {
	switch s := s.(type) {
	case *cminor.Block:
		for _, st := range s.Stmts {
			b.stmt(st)
		}
	case *cminor.DeclStmt:
		v, ok := b.localVar(s.Decl)
		if s.Decl.Init != nil {
			if !ok {
				// A checker gap: lower into an isolated temp rather
				// than crash.
				v = b.temp()
			}
			src := b.expr(s.Decl.Init)
			b.emit(Instr{Op: Assign, Dst: varOpd(v), Src: src}, s.Decl.Pos)
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
		ret := b.frag.funcs[len(b.frag.funcs)-1].RetVal
		if s.X != nil {
			src := b.expr(s.X)
			b.emit(Instr{Op: Assign, Dst: varOpd(ret), Src: src}, s.Pos)
		}
		b.emit(Instr{Op: Ret, Src: varOpd(ret)}, s.Pos)
	case *cminor.Break, *cminor.Continue, *cminor.Empty:
	}
}

// localVar returns the variable of a local declaration, or false if
// the checker did not record it. The checker lists a function's locals
// in FuncInfo.Locals in the order their declaration statements are
// lowered, so a cursor finds each one; same-name locals in nested
// blocks stay distinct.
func (b *builder) localVar(d *cminor.VarDecl) (int32, bool) {
	if k := b.nextLocal; k < len(b.fi.Locals) && b.fi.Locals[k].Decl == d {
		b.nextLocal++
		return b.fnVars[len(b.fi.Params)+k], true
	}
	return 0, false
}

// varOf returns the variable of a resolved variable object: the
// current function's parameter or local, or the fragment's slot for a
// global.
func (b *builder) varOf(obj *cminor.VarObject) int32 {
	if obj.Global {
		return b.globalSlot(obj.Name)
	}
	return b.fnVars[obj.Index]
}

// --- expressions ---

// place describes an assignable location: either a variable or a
// memory cell [base+off].
type place struct {
	isVar bool
	v     int32   // variable places
	base  Operand // memory places
	off   int64
}

func (b *builder) expr(e cminor.Expr) Operand {
	switch e := e.(type) {
	case *cminor.Ident:
		switch obj := b.info.Object(b.uses[e.ID], b.fi).(type) {
		case *cminor.VarObject:
			v := b.varOf(obj)
			// Array-typed variables decay to a pointer to their
			// storage.
			if _, isArr := obj.Type.(*cminor.ArrayType); isArr {
				t := b.temp()
				b.takeAddr(v)
				b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(v)}, e.Pos)
				return varOpd(t)
			}
			return varOpd(v)
		case *cminor.FuncObject:
			return b.funcOpd(obj.Name)
		case *cminor.EnumConst:
			return b.constOpd(obj.Value)
		}
		return b.constOpd(0)
	case *cminor.IntLit:
		return b.constOpd(e.V)
	case *cminor.StrLit:
		idx := len(b.frag.strings)
		b.frag.strings = append(b.frag.strings, StringLit{Value: e.V, Pos: cminor.FilePos{File: b.frag.Path, Pos: e.Pos}})
		t := b.temp()
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: Operand{Kind: StringOpd, V: int32(idx)}}, e.Pos)
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
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e.Then)}, e.Pos)
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e.Else)}, e.Pos)
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
			return b.constOpd(sz)
		}
		return b.constOpd(8)
	case *cminor.SizeofExpr:
		b.expr(e.X)
		if sz, ok := b.info.Sizeofs[e]; ok {
			return b.constOpd(sz)
		}
		return b.constOpd(8)
	}
	return b.constOpd(0)
}

func (b *builder) unary(e *cminor.Unary) Operand {
	switch e.Op {
	case cminor.Star:
		base := b.expr(e.X)
		t := b.temp()
		b.emit(Instr{Op: Load, Dst: varOpd(t), Base: base}, e.Pos)
		return varOpd(t)
	case cminor.Amp:
		return b.addressOf(e.X, e.Pos)
	case cminor.Inc, cminor.Dec, cminor.Minus, cminor.Tilde, cminor.Not:
		// Arithmetic/logical unaries preserve the abstract value for
		// the weakly-typed analysis (pointer arithmetic keeps the
		// object, Section 5.5).
		return b.expr(e.X)
	}
	return b.constOpd(0)
}

// addressOf lowers &x for the supported lvalue shapes.
func (b *builder) addressOf(x cminor.Expr, pos cminor.Pos) Operand {
	pl := b.lvalue(x)
	if pl.isVar {
		b.takeAddr(pl.v)
		t := b.temp()
		b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(pl.v)}, pos)
		return varOpd(t)
	}
	if pl.off == 0 {
		return pl.base
	}
	t := b.temp()
	b.emitAt(Instr{Op: FieldAddr, Dst: varOpd(t), Base: pl.base}, pl.off, pos)
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
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: x}, e.Pos)
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: y}, e.Pos)
	return varOpd(t)
}

func (b *builder) assign(e *cminor.AssignExpr) Operand {
	src := b.expr(e.RHS)
	if e.Op != cminor.Assign {
		// Compound assignment: merge old and new values.
		t := b.temp()
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: src}, e.Pos)
		old := b.readPlace(b.lvalue(e.LHS), e.Pos)
		b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: old}, e.Pos)
		src = varOpd(t)
	}
	pl := b.lvalue(e.LHS)
	if pl.isVar {
		b.emit(Instr{Op: Assign, Dst: varOpd(pl.v), Src: src}, e.Pos)
	} else {
		b.emitAt(Instr{Op: Store, Base: pl.base, Src: src}, pl.off, e.Pos)
	}
	return src
}

func (b *builder) call(e *cminor.Call) Operand {
	var callee Operand
	if id, ok := e.Fun.(*cminor.Ident); ok {
		if fo, ok := b.info.Object(b.uses[id.ID], b.fi).(*cminor.FuncObject); ok {
			callee = b.funcOpd(fo.Name)
		}
	}
	if callee.Kind == None {
		callee = b.expr(e.Fun)
	}
	// Arguments may contain calls of their own, so they are gathered
	// on a stack and copied into the argument table together.
	base := len(b.argStack)
	for _, a := range e.Args {
		opd := b.expr(a)
		b.argStack = append(b.argStack, opd)
	}
	start := int32(len(b.args))
	b.args = append(b.args, b.argStack[base:]...)
	b.argStack = b.argStack[:base]
	dst := b.temp()
	b.emit(Instr{Op: Call, Dst: varOpd(dst), Base: callee, Off: start, NumArgs: int32(len(e.Args))}, e.Pos)
	return varOpd(dst)
}

// lvalue resolves an assignable expression to a place.
func (b *builder) lvalue(e cminor.Expr) place {
	switch e := e.(type) {
	case *cminor.Ident:
		if obj, ok := b.info.Object(b.uses[e.ID], b.fi).(*cminor.VarObject); ok {
			return place{isVar: true, v: b.varOf(obj)}
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
		if inner.isVar {
			b.takeAddr(inner.v)
			t := b.temp()
			b.emit(Instr{Op: Addr, Dst: varOpd(t), Src: varOpd(inner.v)}, e.Pos)
			return place{base: varOpd(t), off: off}
		}
		return place{base: inner.base, off: inner.off + off}
	case *cminor.Cast:
		return b.lvalue(e.X)
	}
	// Not an lvalue we track: evaluate for effect, park in a temp.
	t := b.temp()
	b.emit(Instr{Op: Assign, Dst: varOpd(t), Src: b.expr(e)}, cminor.ExprPos(e))
	return place{isVar: true, v: t}
}

// readPlace loads the value stored at a place.
func (b *builder) readPlace(pl place, pos cminor.Pos) Operand {
	if pl.isVar {
		return varOpd(pl.v)
	}
	t := b.temp()
	b.emitAt(Instr{Op: Load, Dst: varOpd(t), Base: pl.base}, pl.off, pos)
	return varOpd(t)
}
