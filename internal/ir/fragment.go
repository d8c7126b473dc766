package ir

import (
	"sort"
	"strconv"

	"repro/internal/cminor"
)

// Fragment is the lowered IR of a single file: the per-file half of
// Lower. A fragment carries no program-wide identity — variables,
// instructions, callees, string literals and call arguments are
// numbered locally, and globals are name-keyed slots — so it depends
// only on its own file's AST and the declaration environment (types,
// layouts, signatures). As long as that environment is unchanged (see
// cminor.SameDecls), a fragment can be cached by file digest and
// linked into any number of programs. A fragment is immutable once
// LowerFile returns: Link only reads it, so concurrent links may share
// it, and its instruction and variable tables hold no pointers for the
// collector to scan.
type Fragment struct {
	// Path is the source file the fragment was lowered from.
	Path string

	// instrs holds the file's global-initializer instructions
	// [0, numInit), then its function bodies in declaration order.
	instrs  instrTable
	numInit int
	// vars holds the temporaries of the initializers [0, numInitVars),
	// then every function-local variable (parameters, return slots,
	// locals, temporaries) in creation order. varNames holds the names
	// of the named ones in the same order; a temporary is named by its
	// ordinal (see varName).
	vars        []Var
	varNames    []string
	numInitVars int32
	// args is the argument table a Call's Instr.Off indexes; consts
	// holds the constants and offsets too wide for an Operand or an
	// Instr.Off; names the callee and function value names FuncOpd
	// operands index.
	args   []Operand
	consts []int64
	names  []string
	// funcs are the file's defined functions in declaration order,
	// which is instruction order, numbered fragment-locally.
	funcs []Func
	// globals are the program globals the file names, one slot each;
	// a slot's addrTaken records that this file takes the address.
	globals []globalSlot
	// strings are the file's string literal sites: the first
	// initStrings from global initializers, the rest from bodies.
	strings     []StringLit
	initStrings int
}

// Chunks of an instrTable hold chunkLen instructions: 32 KiB, the
// largest small size class, which a pointer-free chunk fills exactly.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// instrTable is a fragment's instruction table: chunks of chunkLen
// instructions, every one full but the last. It grows by a chunk at a
// time and never copies, so it costs what it stores plus at most one
// chunk.
type instrTable [][]instr

// len counts the instructions in the table.
func (t instrTable) len() int {
	if len(t) == 0 {
		return 0
	}
	return (len(t)-1)<<chunkBits + len(t[len(t)-1])
}

// at returns the i-th instruction.
func (t instrTable) at(i int) *instr { return &t[i>>chunkBits][i&chunkMask] }

// add packs an instruction and appends it, starting a chunk when the
// last is full.
func (t *instrTable) add(in Instr) {
	if n := len(*t); n == 0 || len((*t)[n-1]) == chunkLen {
		*t = append(*t, make([]instr, 0, chunkLen))
	}
	last := &(*t)[len(*t)-1]
	*last = append(*last, instr{
		op: in.Op, dstKind: in.Dst.Kind, srcKind: in.Src.Kind, baseKind: in.Base.Kind,
		dst: in.Dst.V, src: in.Src.V, base: in.Base.V,
		off: in.Off, numArgs: in.NumArgs, pos: in.Pos,
	})
}

type globalSlot struct {
	name      string
	addrTaken bool
}

// Program is a whole linked program: a view over shared, immutable
// fragments plus the per-fragment base offsets that turn their local
// numbers into program-wide IDs. Linking copies no instruction,
// variable or operand; Instr, Var and StringLit resolve them on demand.
//
// Program-wide numbering: variables are the globals (declared ones in
// sorted name order, then checker-fallback names), then every
// fragment's initializer temporaries, then every fragment's body
// variables; instructions are every fragment's initializers, then
// every fragment's bodies — both in file order.
type Program struct {
	Funcs   map[string]*Func
	Externs map[string]*cminor.FuncObject // declared but not defined
	Info    *cminor.Info

	frags     []linked
	funcs     []Func
	initFn    *Func
	globals   []global
	globalIDs map[string]int32
	numInit   int // initializer instructions
	numInstrs int
	numVars   int32
	bodyVar0  int32 // first body variable's ID
	initStrs  int   // initializer string literals
	numStrs   int
}

type global struct {
	name        string
	pointerLike bool
	addrTaken   bool
}

// linked is one fragment's place in a program: the IDs of its first
// initializer and body instruction, variable and string literal, its
// first function's index in Program.funcs, and its global slots'
// canonical variable IDs.
type linked struct {
	p                    *Program
	frag                 *Fragment
	initInstr, bodyInstr int
	initVar, bodyVar     int32
	initStr, bodyStr     int
	funcs                int
	slots                []int32
}

// Link assembles fragments (in file order) into one Program. It reads
// the fragments and writes only the Program, so fragments reused from
// an earlier program may be shared by concurrent links, and reports are
// byte-identical whether a fragment was freshly lowered or replayed
// from a cache. It costs O(#fragments + #globals + #funcs).
func Link(info *cminor.Info, frags []*Fragment) *Program {
	nFuncs := 0
	for _, fr := range frags {
		nFuncs += len(fr.funcs)
	}
	p := &Program{
		Funcs:     make(map[string]*Func, nFuncs+1),
		Externs:   make(map[string]*cminor.FuncObject),
		Info:      info,
		frags:     make([]linked, len(frags)),
		globalIDs: make(map[string]int32, len(info.Globals)),
	}
	// Canonical globals in sorted name order (variable IDs carry no
	// analysis meaning; sorting makes linking deterministic).
	names := make([]string, 0, len(info.Globals))
	for name := range info.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	p.globals = make([]global, len(names))
	for i, name := range names {
		p.globals[i] = global{name: name, pointerLike: cminor.IsPointer(info.Globals[name].Type)}
		p.globalIDs[name] = int32(i)
	}
	for name, fo := range info.Funcs {
		if fo.Decl == nil || fo.Decl.Body == nil {
			p.Externs[name] = fo
		}
	}
	// Global slots: a name the checker did not register (a fallback)
	// gets a canonical global after the declared ones. AddrTaken is
	// the OR over every slot naming the global.
	for i, fr := range frags {
		lf := &p.frags[i]
		lf.p, lf.frag = p, fr
		lf.slots = make([]int32, len(fr.globals))
		for s, g := range fr.globals {
			id, ok := p.globalIDs[g.name]
			if !ok {
				id = int32(len(p.globals))
				p.globals = append(p.globals, global{name: g.name})
				p.globalIDs[g.name] = id
			}
			lf.slots[s] = id
			if g.addrTaken {
				p.globals[id].addrTaken = true
			}
		}
	}
	// Bases: every initializer segment first, then every body.
	nextVar, nextInstr, nextStr := int32(len(p.globals)), 0, 0
	for i := range p.frags {
		lf := &p.frags[i]
		lf.initVar, lf.initInstr, lf.initStr = nextVar, nextInstr, nextStr
		nextVar += lf.frag.numInitVars
		nextInstr += lf.frag.numInit
		nextStr += lf.frag.initStrings
	}
	p.bodyVar0, p.numInit, p.initStrs = nextVar, nextInstr, nextStr
	p.funcs = make([]Func, 0, nFuncs)
	for i := range p.frags {
		lf := &p.frags[i]
		fr := lf.frag
		lf.bodyVar, lf.bodyInstr, lf.bodyStr = nextVar, nextInstr, nextStr
		lf.funcs = len(p.funcs)
		for _, fn := range fr.funcs {
			fn.p = p
			fn.First, fn.End = lf.instrID(fn.First), lf.instrID(fn.End)
			fn.VarFirst, fn.VarEnd = lf.varID(fn.VarFirst), lf.varID(fn.VarEnd)
			fn.Params, fn.RetVal = lf.varID(fn.Params), lf.varID(fn.RetVal)
			p.funcs = append(p.funcs, fn)
		}
		nextVar += int32(len(fr.vars)) - fr.numInitVars
		nextInstr += fr.instrs.len() - fr.numInit
		nextStr += len(fr.strings) - fr.initStrings
	}
	p.numVars, p.numInstrs, p.numStrs = nextVar, nextInstr, nextStr
	if p.numInit > 0 {
		p.initFn = &Func{
			Name: InitFuncName, p: p, End: p.numInit,
			VarFirst: int32(len(p.globals)), VarEnd: p.bodyVar0, RetVal: -1,
		}
		p.Funcs[InitFuncName] = p.initFn
	}
	for i := range p.funcs {
		p.Funcs[p.funcs[i].Name] = &p.funcs[i]
	}
	return p
}

// instrID maps a fragment-local instruction index to its program ID.
func (lf *linked) instrID(local int) int {
	if local < lf.frag.numInit {
		return lf.initInstr + local
	}
	return lf.bodyInstr + local - lf.frag.numInit
}

// varID maps a fragment-local variable index (or global slot -1-V) to
// its program ID.
func (lf *linked) varID(v int32) int32 {
	switch {
	case v < 0:
		return lf.slots[-1-v]
	case v < lf.frag.numInitVars:
		return lf.initVar + v
	}
	return lf.bodyVar + v - lf.frag.numInitVars
}

// opd resolves a stored operand of kind k and value v.
func (lf *linked) opd(k OperandKind, v int32) Opd {
	switch k {
	case VarOpd:
		return Opd{Kind: VarOpd, Var: lf.varID(v)}
	case ConstOpd:
		return Opd{Kind: ConstOpd, C: int64(v)}
	case bigConstOpd:
		return Opd{Kind: ConstOpd, C: lf.frag.consts[v]}
	case FuncOpd:
		return Opd{Kind: FuncOpd, Fn: lf.frag.names[v]}
	case StringOpd:
		if int(v) < lf.frag.initStrings {
			return Opd{Kind: StringOpd, C: int64(lf.initStr + int(v))}
		}
		return Opd{Kind: StringOpd, C: int64(lf.bodyStr + int(v) - lf.frag.initStrings)}
	}
	return Opd{Kind: k}
}

// inst returns the fragment's local-th instruction, whose ID is id.
func (lf *linked) inst(local, id int) Inst {
	in := lf.frag.instrs.at(local)
	return Inst{ID: id, Op: in.op &^ wideOff, in: in, lf: lf}
}

// locate finds the fragment holding instruction id and its local
// index there. Each search below finds the last fragment whose
// segment starts at or before the ID: fragments with empty segments
// before it share its start, and those after it start later.
func (p *Program) locate(id int) (*linked, int) {
	if id < p.numInit {
		i := sort.Search(len(p.frags), func(i int) bool { return p.frags[i].initInstr > id }) - 1
		return &p.frags[i], id - p.frags[i].initInstr
	}
	i := sort.Search(len(p.frags), func(i int) bool { return p.frags[i].bodyInstr > id }) - 1
	lf := &p.frags[i]
	return lf, lf.frag.numInit + id - lf.bodyInstr
}

// Cursor walks a range of instructions in ID order, locating each
// fragment once rather than each instruction:
//
//	c := p.Cursor(f.First, f.End)
//	for c.Next() {
//		in := c.Inst
//		...
//	}
//
// (Declared in a for statement's init clause, the cursor would be
// copied every iteration.)
type Cursor struct {
	// Inst is the current instruction, valid after Next returns true.
	Inst Inst

	p              *Program
	lf             *linked
	local          int
	next, end, seg int
}

// Cursor returns a cursor over the instructions with IDs in
// [first, end).
func (p *Program) Cursor(first, end int) Cursor {
	return Cursor{p: p, next: first, end: end, seg: first}
}

// Next advances to the next instruction, reporting false at the end.
func (c *Cursor) Next() bool {
	if c.next >= c.end {
		return false
	}
	if c.next == c.seg {
		c.enter()
	}
	c.Inst = c.lf.inst(c.local, c.next)
	c.local++
	c.next++
	return true
}

// enter moves the cursor into the fragment segment holding c.next.
func (c *Cursor) enter() {
	c.lf, c.local = c.p.locate(c.next)
	if c.next < c.p.numInit {
		c.seg = c.lf.initInstr + c.lf.frag.numInit
	} else {
		c.seg = c.lf.bodyInstr + c.lf.frag.instrs.len() - c.lf.frag.numInit
	}
}

// Fragment returns the i-th linked fragment, in file order.
func (p *Program) Fragment(i int) *Fragment { return p.frags[i].frag }

// NumInstrs counts the program's instructions; IDs are 0..NumInstrs-1.
func (p *Program) NumInstrs() int { return p.numInstrs }

// Instr resolves the instruction with the given ID.
func (p *Program) Instr(id int) Inst {
	lf, local := p.locate(id)
	return lf.inst(local, id)
}

// NumVars counts the program's variables; IDs are 0..NumVars-1, the
// globals first.
func (p *Program) NumVars() int { return int(p.numVars) }

// NumGlobals counts the globals; a variable is global iff its ID is
// below it.
func (p *Program) NumGlobals() int32 { return int32(len(p.globals)) }

// Global returns the ID of the named global.
func (p *Program) Global(name string) (int32, bool) {
	id, ok := p.globalIDs[name]
	return id, ok
}

// locateVar finds the fragment holding a non-global variable and its
// local index there.
func (p *Program) locateVar(id int32) (*linked, int32) {
	if id < p.bodyVar0 {
		i := sort.Search(len(p.frags), func(i int) bool { return p.frags[i].initVar > id }) - 1
		return &p.frags[i], id - p.frags[i].initVar
	}
	i := sort.Search(len(p.frags), func(i int) bool { return p.frags[i].bodyVar > id }) - 1
	lf := &p.frags[i]
	return lf, lf.frag.numInitVars + id - lf.bodyVar
}

// Var returns the record of the variable with the given ID.
func (p *Program) Var(id int32) Var {
	if id < int32(len(p.globals)) {
		g := p.globals[id]
		return Var{Global: true, AddrTaken: g.addrTaken, PointerLike: g.pointerLike}
	}
	lf, local := p.locateVar(id)
	return lf.frag.vars[local]
}

// VarName returns the source name of the variable with the given ID.
func (p *Program) VarName(id int32) string {
	if id < int32(len(p.globals)) {
		return p.globals[id].name
	}
	lf, local := p.locateVar(id)
	return lf.frag.varName(local)
}

// varName names the fragment's variable v. Temporaries are numbered
// from 1 in creation order across the fragment and named "t" and their
// number: every variable is a temporary but the named ones, which
// start each function.
func (fr *Fragment) varName(v int32) string {
	named := int32(0) // named variables before v
	if v >= fr.numInitVars {
		k := sort.Search(len(fr.funcs), func(k int) bool { return fr.funcs[k].VarEnd > v })
		fn := &fr.funcs[k]
		if v < fn.temps {
			return fr.varNames[fn.names+v-fn.VarFirst]
		}
		named = fn.names + fn.temps - fn.VarFirst
	}
	return "t" + strconv.Itoa(int(v+1-named))
}

// NumStrings counts the program's string literal sites.
func (p *Program) NumStrings() int { return p.numStrs }

// StringLit returns string literal site i: initializer literals in
// file order, then body literals in file order.
func (p *Program) StringLit(i int) StringLit {
	if i < p.initStrs {
		k := sort.Search(len(p.frags), func(k int) bool { return p.frags[k].initStr > i }) - 1
		return p.frags[k].frag.strings[i-p.frags[k].initStr]
	}
	k := sort.Search(len(p.frags), func(k int) bool { return p.frags[k].bodyStr > i }) - 1
	lf := &p.frags[k]
	return lf.frag.strings[lf.frag.initStrings+i-lf.bodyStr]
}
