// Package ir defines RegionWiz's intermediate representation and the
// lowering from the cminor AST.
//
// The IR mirrors the instruction stream the paper extracted from the
// Phoenix compiler framework (Section 5.1): each instruction has a
// destination operand, an opcode, and source operands, with structure
// fields addressed by machine-dependent byte offsets. Control flow is
// deliberately absent — every analysis phase that consumes this IR is
// flow-insensitive (Section 4.3), so a function body is a flat list of
// effect-bearing instructions. (The concrete interpreter in package
// interp executes the AST directly and is the flow-sensitive
// reference.)
//
// The stored IR is numbered tuples, as bddbddb consumed it: a stored
// instruction names its variables, callee, string literal and
// arguments by integer indices local to its file's Fragment, and
// holds no pointer.
// Fragments are immutable once lowered and shared by every Program
// linked from them; a Program is a view that adds per-fragment base
// offsets, and hands readers resolved values (Inst, Opd) that carry
// program-wide IDs.
package ir

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cminor"
)

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	// Assign: Dst = Src.
	Assign Op = iota
	// Load: Dst = *(Base + Off).
	Load
	// Store: *(Base + Off) = Src.
	Store
	// Addr: Dst = &Var (Src must be a variable operand).
	Addr
	// FieldAddr: Dst = Base + Off (address of a field; the paper's ADD).
	FieldAddr
	// Call: Dst = Callee(Args...). Dst may be none.
	Call
	// Ret: return Src (may be none).
	Ret
)

func (o Op) String() string {
	switch o {
	case Assign:
		return "ASSIGN"
	case Load:
		return "LOAD"
	case Store:
		return "STORE"
	case Addr:
		return "ADDR"
	case FieldAddr:
		return "ADD"
	case Call:
		return "CALL"
	case Ret:
		return "RET"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// OperandKind classifies an operand.
type OperandKind uint8

// Operand kinds.
const (
	None OperandKind = iota
	VarOpd
	ConstOpd
	FuncOpd
	StringOpd
	NullOpd
	// bigConstOpd is a stored constant that does not fit in an
	// Operand: V indexes the fragment's constant table. Resolution
	// turns it into a ConstOpd.
	bigConstOpd
)

// Operand is a stored source or destination of an instruction. V is
// interpreted by Kind, always relative to the operand's fragment:
//
//   - VarOpd: a variable index (InitVars then BodyVars) when V >= 0,
//     or global slot -1-V;
//   - ConstOpd: the constant itself;
//   - FuncOpd: an index into the fragment's function-name table;
//   - StringOpd: an index into the fragment's string literals.
type Operand struct {
	Kind OperandKind
	V    int32
}

// Instr is one IR instruction as lowering builds it: an opcode with
// its operands as fragment-local numbers. A Call keeps its callee in
// Base and its NumArgs arguments from index Off of the fragment's
// argument table; a Load, Store or FieldAddr keeps its byte offset in
// Off, or, with wideOff set in Op, the index of the offset in the
// fragment's constant table. The source file is the fragment's, and
// the enclosing function the one whose range holds the instruction.
// Its program-wide ID is computed when linked. The fragment stores it
// packed as an instr.
type Instr struct {
	Dst     Operand
	Src     Operand // Assign/Store/Ret source; Addr variable
	Base    Operand // Load/Store/FieldAddr base pointer; Call callee
	Off     int32
	NumArgs int32
	Pos     cminor.Pos
	Op      Op
}

// instr is an Instr as a fragment stores it: the opcode and the three
// operand kinds in four bytes, then the operand values, Off, NumArgs
// and Pos. It is 32 bytes and holds no pointer.
type instr struct {
	op                         Op
	dstKind, srcKind, baseKind OperandKind
	dst, src, base             int32
	off, numArgs               int32
	pos                        cminor.Pos
}

// wideOff marks a stored Op whose Instr.Off indexes the constant table.
const wideOff Op = 0x80

// Var is one variable's record: a source variable, parameter, global,
// or compiler temporary. Its name lives in a separate table, so
// records hold no pointers.
type Var struct {
	// Global is set in the records Program.Var makes for globals;
	// fragments store only local variables.
	Global bool
	Param  bool
	Temp   bool
	// AddrTaken is set when an Addr instruction takes the variable's
	// address; only such variables need storage objects in the pointer
	// analysis. A global's flag is per program: the OR over the
	// fragments linked into it.
	AddrTaken bool
	// PointerLike reports whether the variable's declared type can
	// carry a pointer (pointers, integers wide enough after casts —
	// CMinor is weakly typed, so this is advisory only).
	PointerLike bool
}

// Opd is an operand resolved against a Program: the value readers
// see.
type Opd struct {
	Kind OperandKind
	Var  int32 // VarOpd: program-wide variable ID
	// C is the constant of a ConstOpd, or the program-wide index of a
	// StringOpd's literal (see Program.StringLit).
	C  int64
	Fn string // FuncOpd: function name
}

// Inst is an instruction of a Program: a handle on the stored instr
// whose accessors decode and resolve operands, position and function
// on demand.
// ID is unique across the program — the paper's instruction set I.
// Inst values are computed by Program.Instr; nothing a Program holds
// points at them. At four words it stays in registers.
type Inst struct {
	ID int
	Op Op

	in *instr
	lf *linked
}

// Off is a Load, Store or FieldAddr's byte offset.
func (in Inst) Off() int64 {
	switch {
	case in.Op == Call:
		return 0
	case in.in.op&wideOff != 0:
		return in.lf.frag.consts[in.in.off]
	}
	return int64(in.in.off)
}

// NumArgs is a call's argument count; Arg resolves each one.
func (in Inst) NumArgs() int { return int(in.in.numArgs) }

// Dst is the destination operand.
func (in Inst) Dst() Opd { return in.lf.opd(in.in.dstKind, in.in.dst) }

// Src is the Assign/Store/Ret source, or the Addr variable.
func (in Inst) Src() Opd { return in.lf.opd(in.in.srcKind, in.in.src) }

// Base is the Load/Store/FieldAddr base pointer.
func (in Inst) Base() Opd {
	if in.Op == Call {
		return Opd{}
	}
	return in.lf.opd(in.in.baseKind, in.in.base)
}

// Callee is a Call's callee.
func (in Inst) Callee() Opd {
	if in.Op != Call {
		return Opd{}
	}
	return in.lf.opd(in.in.baseKind, in.in.base)
}

// Arg returns the k-th call argument, 0 <= k < NumArgs.
func (in Inst) Arg(k int) Opd {
	a := in.lf.frag.args[int(in.in.off)+k]
	return in.lf.opd(a.Kind, a.V)
}

// Pos is the instruction's source position, in its fragment's file.
func (in Inst) Pos() cminor.FilePos {
	return cminor.FilePos{File: in.lf.frag.Path, Pos: in.in.pos}
}

// Func is the enclosing function: the synthetic initializer for a
// global initializer.
func (in Inst) Func() *Func {
	lf := in.lf
	if in.ID < lf.p.numInit {
		return lf.p.initFn
	}
	// The fragment's functions tile its body instructions in order: the
	// first one ending after the instruction holds it.
	local := lf.frag.numInit + in.ID - lf.bodyInstr
	funcs := lf.frag.funcs
	k := sort.Search(len(funcs), func(k int) bool { return funcs[k].End > local })
	return &lf.p.funcs[lf.funcs+k]
}

func (in Inst) String() string {
	return in.format(in.lf.p.VarName)
}

// format renders the instruction with variables named by name.
func (in Inst) format(name func(int32) string) string {
	opd := func(o Opd) string { return o.format(name) }
	switch in.Op {
	case Assign:
		return fmt.Sprintf("%s = ASSIGN %s", opd(in.Dst()), opd(in.Src()))
	case Load:
		return fmt.Sprintf("%s = LOAD [%s+%d]", opd(in.Dst()), opd(in.Base()), in.Off())
	case Store:
		return fmt.Sprintf("STORE [%s+%d] = %s", opd(in.Base()), in.Off(), opd(in.Src()))
	case Addr:
		return fmt.Sprintf("%s = ADDR %s", opd(in.Dst()), opd(in.Src()))
	case FieldAddr:
		return fmt.Sprintf("%s = ADD %s, %d", opd(in.Dst()), opd(in.Base()), in.Off())
	case Call:
		args := make([]string, in.NumArgs())
		for i := range args {
			args[i] = opd(in.Arg(i))
		}
		call := fmt.Sprintf("CALL %s(%s)", opd(in.Callee()), strings.Join(args, ", "))
		if in.Dst().Kind == None {
			return call
		}
		return fmt.Sprintf("%s = %s", opd(in.Dst()), call)
	case Ret:
		if in.Src().Kind == None {
			return "RET"
		}
		return fmt.Sprintf("RET %s", opd(in.Src()))
	}
	return "?"
}

func (o Opd) format(name func(int32) string) string {
	switch o.Kind {
	case None:
		return "_"
	case VarOpd:
		return name(o.Var)
	case ConstOpd:
		return fmt.Sprintf("%d", o.C)
	case FuncOpd:
		return "&" + o.Fn
	case StringOpd:
		return fmt.Sprintf("str#%d", o.C)
	case NullOpd:
		return "null"
	}
	return "?"
}

// Func is a lowered function. In a Fragment its numbers are
// fragment-local (instruction and variable indices); in a Program
// they are program-wide IDs.
type Func struct {
	Name     string
	Ret      bool // has a non-void return type
	Variadic bool
	Decl     *cminor.FuncDecl
	// First and End bound the function's instructions: [First, End).
	First, End int
	// VarFirst and VarEnd bound the variables the function owns —
	// parameters, return slot, locals and temporaries.
	VarFirst, VarEnd int32
	// The NumParams parameters are the variables from Params on.
	Params    int32
	NumParams int
	// RetVal is the distinguished variable that Ret instructions
	// assign, which the call-return wiring in the pointer analysis
	// reads; -1 for the synthetic initializer.
	RetVal int32

	// In a Fragment, the function's named variables (parameters,
	// return slot, locals) are [VarFirst, temps) and the rest are
	// temporaries; names is the index of the first one's name in the
	// fragment's name table. Link does not rebase them.
	names, temps int32

	p *Program
}

// Param returns the variable ID of the i-th parameter.
func (f *Func) Param(i int) int32 { return f.Params + int32(i) }

// NumInstrs counts the function's instructions.
func (f *Func) NumInstrs() int { return f.End - f.First }

// Instrs resolves the function's instructions into a new slice; a
// Program.Cursor over First..End-1 allocates nothing.
func (f *Func) Instrs() []Inst {
	out := make([]Inst, 0, f.NumInstrs())
	c := f.p.Cursor(f.First, f.End)
	for c.Next() {
		out = append(out, c.Inst)
	}
	return out
}

// Dump renders a function's instructions, one per line (debugging and
// the cmd/cminor tool).
func (f *Func) Dump() string {
	var sb strings.Builder
	params := make([]string, f.NumParams)
	for i := range params {
		params[i] = f.p.VarName(f.Param(i))
	}
	fmt.Fprintf(&sb, "func %s(%s):\n", f.Name, strings.Join(params, ", "))
	c := f.p.Cursor(f.First, f.End)
	for c.Next() {
		fmt.Fprintf(&sb, "  %4d  %s\n", c.Inst.ID, c.Inst)
	}
	return sb.String()
}

// StringLit is one string literal site.
type StringLit struct {
	Value string
	Pos   cminor.FilePos
}

// FuncNames returns defined function names in a stable order.
func (p *Program) FuncNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
