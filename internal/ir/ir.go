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
)

// Operand is a source or destination of an instruction.
type Operand struct {
	Kind OperandKind
	Var  *Var   // VarOpd
	Fn   string // FuncOpd: function name
	// C is the constant of a ConstOpd, or the index into
	// Program.Strings of a StringOpd.
	C int64
}

// IsNone reports whether the operand is absent.
func (o Operand) IsNone() bool { return o.Kind == None }

func (o Operand) String() string {
	switch o.Kind {
	case None:
		return "_"
	case VarOpd:
		return o.Var.Name
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

// Instr is one IR instruction. ID is unique across the whole program —
// the paper's instruction set I.
type Instr struct {
	ID   int
	Op   Op
	Dst  Operand
	Src  Operand // Assign/Store/Ret source; Addr variable
	Base Operand // Load/Store/FieldAddr base pointer
	Off  int64   // Load/Store/FieldAddr byte offset
	// Call:
	Callee Operand
	Args   []Operand

	Pos  cminor.Pos
	Func *Func
}

func (in *Instr) String() string {
	switch in.Op {
	case Assign:
		return fmt.Sprintf("%s = ASSIGN %s", in.Dst, in.Src)
	case Load:
		return fmt.Sprintf("%s = LOAD [%s+%d]", in.Dst, in.Base, in.Off)
	case Store:
		return fmt.Sprintf("STORE [%s+%d] = %s", in.Base, in.Off, in.Src)
	case Addr:
		return fmt.Sprintf("%s = ADDR %s", in.Dst, in.Src)
	case FieldAddr:
		return fmt.Sprintf("%s = ADD %s, %d", in.Dst, in.Base, in.Off)
	case Call:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		call := fmt.Sprintf("CALL %s(%s)", in.Callee, strings.Join(args, ", "))
		if in.Dst.IsNone() {
			return call
		}
		return fmt.Sprintf("%s = %s", in.Dst, call)
	case Ret:
		if in.Src.IsNone() {
			return "RET"
		}
		return fmt.Sprintf("RET %s", in.Src)
	}
	return "?"
}

// Var is an IR variable: a source variable, parameter, global, or
// compiler temporary. ID is unique across the program — the paper's
// variable set V.
type Var struct {
	ID     int
	Name   string
	Global bool
	Param  bool
	Temp   bool
	Func   *Func // nil for globals
	// AddrTaken is set when an Addr instruction takes the variable's
	// address; only such variables need storage objects in the pointer
	// analysis.
	AddrTaken bool
	// PointerLike reports whether the variable's declared type can
	// carry a pointer (pointers, integers wide enough after casts —
	// CMinor is weakly typed, so this is advisory only).
	PointerLike bool
}

func (v *Var) String() string { return v.Name }

// Func is a lowered function body.
type Func struct {
	Name     string
	Params   []*Var
	Ret      bool // has a non-void return type
	Variadic bool
	Instrs   []*Instr
	Decl     *cminor.FuncDecl
	// RetVal is the distinguished variable that Ret instructions
	// assign; the call-return wiring in the pointer analysis reads it.
	RetVal *Var
}

// StringLit is one string literal site.
type StringLit struct {
	Value string
	Pos   cminor.Pos
}

// Program is a whole lowered program.
type Program struct {
	Funcs   map[string]*Func
	Externs map[string]*cminor.FuncObject // declared but not defined
	Globals map[string]*Var
	Strings []StringLit
	Vars    []*Var   // all variables, indexed by ID
	Instrs  []*Instr // all instructions, indexed by ID
	Info    *cminor.Info
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

// Dump renders a function's instructions, one per line (debugging and
// the cmd/cminor tool).
func (f *Func) Dump() string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Name
	}
	fmt.Fprintf(&sb, "func %s(%s):\n", f.Name, strings.Join(params, ", "))
	for _, in := range f.Instrs {
		fmt.Fprintf(&sb, "  %4d  %s\n", in.ID, in)
	}
	return sb.String()
}
