package cminor

import (
	"fmt"
	"strings"
)

// This file is the checker's incremental seam. A re-analysis that
// changed only function bodies does not need to re-resolve the world:
// the declaration environment (structs, typedefs, enums, globals,
// function signatures) is unchanged, so the facts for unchanged files
// stay valid and only the changed files' bodies need re-checking.
//
// The contract is signature-based: DeclSignature renders everything
// about a file that other files (or later declarations in the same
// file) can observe — every top-level declaration minus function
// bodies, positions excluded. Two versions of a file with equal
// signatures declare identical environments, so checking only the
// changed bodies against the previous environment gives the same
// answers as a full re-check.
//
// CheckIncremental returns a *partial* Info: the per-name environment
// maps (Structs, Typedefs, Funcs, Globals, Enums) are complete copies,
// but the per-AST-node facts (the per-file Uses tables, and Fields,
// Sizeofs, PtrArith, FuncInfo) cover only the re-checked
// declarations. That is exactly what the IR lowering needs, because
// unchanged files are not re-lowered either — their cached IR
// fragments are reused (see ir.Fragment). Nothing downstream of
// lowering reads the per-node facts.

// DeclSignature renders a file's externally visible declarations in a
// canonical form: every top-level declaration with positions stripped
// and function bodies omitted. Global initializer expressions and
// parameter names are included — both can influence analysis output
// (initializers through the synthetic init function, parameter names
// through warning messages). Two files with equal signatures are
// interchangeable as far as every *other* file's checking and
// lowering is concerned.
func DeclSignature(f *File) string {
	var sb strings.Builder
	for _, d := range f.Decls {
		sigDecl(&sb, d)
	}
	return sb.String()
}

func sigDecl(sb *strings.Builder, d Decl) {
	switch d := d.(type) {
	case *StructDecl:
		fmt.Fprintf(sb, "struct %s u=%t o=%t{", d.Name, d.Union, d.Opaque)
		for _, fd := range d.Fields {
			sb.WriteString(fd.Name)
			sb.WriteByte(':')
			sigType(sb, fd.Type)
			sb.WriteByte(';')
		}
		sb.WriteString("}\n")
	case *EnumDecl:
		fmt.Fprintf(sb, "enum %s{", d.Name)
		for _, item := range d.Items {
			sb.WriteString(item.Name)
			sb.WriteByte('=')
			sigExpr(sb, item.Value)
			sb.WriteByte(';')
		}
		sb.WriteString("}\n")
	case *TypedefDecl:
		fmt.Fprintf(sb, "typedef %s=", d.Name)
		sigType(sb, d.Type)
		sb.WriteByte('\n')
	case *VarDecl:
		fmt.Fprintf(sb, "var %s:", d.Name)
		sigType(sb, d.Type)
		sb.WriteByte('=')
		sigExpr(sb, d.Init)
		sb.WriteByte('\n')
	case *FuncDecl:
		fmt.Fprintf(sb, "func %s x=%t v=%t def=%t(", d.Name, d.Extern, d.Variadic, d.Body != nil)
		for _, p := range d.Params {
			sb.WriteString(p.Name)
			sb.WriteByte(':')
			sigType(sb, p.Type)
			sb.WriteByte(',')
		}
		sb.WriteString(")->")
		sigType(sb, d.Ret)
		sb.WriteByte('\n')
	default:
		fmt.Fprintf(sb, "?decl %T\n", d)
	}
}

func sigType(sb *strings.Builder, te TypeExpr) {
	switch te := te.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *structDefTE:
		fmt.Fprintf(sb, "structdef(%s,%t){", te.Name, te.Union)
		for _, fd := range te.def.Fields {
			sb.WriteString(fd.Name)
			sb.WriteByte(':')
			sigType(sb, fd.Type)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
	case *enumDefTE:
		fmt.Fprintf(sb, "enumdef(%s){", te.Name)
		for _, item := range te.def.Items {
			sb.WriteString(item.Name)
			sb.WriteByte('=')
			sigExpr(sb, item.Value)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
	case *NameTE:
		sb.WriteString(te.Name)
	case *StructTE:
		fmt.Fprintf(sb, "struct(%s,%t)", te.Name, te.Union)
	case *EnumTE:
		fmt.Fprintf(sb, "enum(%s)", te.Name)
	case *PtrTE:
		sb.WriteByte('*')
		sigType(sb, te.Elem)
	case *ArrayTE:
		fmt.Fprintf(sb, "[%d]", te.N)
		sigType(sb, te.Elem)
	case *FuncTE:
		sb.WriteString("fn(")
		for _, p := range te.Params {
			sigType(sb, p)
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, ";%t)->", te.Variadic)
		sigType(sb, te.Ret)
	default:
		fmt.Fprintf(sb, "?type %T", te)
	}
}

func sigExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case nil:
		sb.WriteByte('-')
	case *Ident:
		fmt.Fprintf(sb, "id(%s)", e.Name)
	case *IntLit:
		fmt.Fprintf(sb, "int(%d)", e.V)
	case *StrLit:
		fmt.Fprintf(sb, "str(%q)", e.V)
	case *Null:
		sb.WriteString("null")
	case *Unary:
		fmt.Fprintf(sb, "un(%d,", e.Op)
		sigExpr(sb, e.X)
		sb.WriteByte(')')
	case *Postfix:
		fmt.Fprintf(sb, "post(%d,", e.Op)
		sigExpr(sb, e.X)
		sb.WriteByte(')')
	case *Binary:
		fmt.Fprintf(sb, "bin(%d,", e.Op)
		sigExpr(sb, e.X)
		sb.WriteByte(',')
		sigExpr(sb, e.Y)
		sb.WriteByte(')')
	case *AssignExpr:
		fmt.Fprintf(sb, "asg(%d,", e.Op)
		sigExpr(sb, e.LHS)
		sb.WriteByte(',')
		sigExpr(sb, e.RHS)
		sb.WriteByte(')')
	case *CondExpr:
		sb.WriteString("cond(")
		sigExpr(sb, e.Cond)
		sb.WriteByte(',')
		sigExpr(sb, e.Then)
		sb.WriteByte(',')
		sigExpr(sb, e.Else)
		sb.WriteByte(')')
	case *Call:
		sb.WriteString("call(")
		sigExpr(sb, e.Fun)
		for _, a := range e.Args {
			sb.WriteByte(',')
			sigExpr(sb, a)
		}
		sb.WriteByte(')')
	case *Index:
		sb.WriteString("idx(")
		sigExpr(sb, e.X)
		sb.WriteByte(',')
		sigExpr(sb, e.I)
		sb.WriteByte(')')
	case *FieldAccess:
		fmt.Fprintf(sb, "fld(%s,%t,", e.Name, e.Arrow)
		sigExpr(sb, e.X)
		sb.WriteByte(')')
	case *Cast:
		sb.WriteString("cast(")
		sigType(sb, e.Type)
		sb.WriteByte(',')
		sigExpr(sb, e.X)
		sb.WriteByte(')')
	case *SizeofType:
		sb.WriteString("sizeofT(")
		sigType(sb, e.Type)
		sb.WriteByte(')')
	case *SizeofExpr:
		sb.WriteString("sizeofE(")
		sigExpr(sb, e.X)
		sb.WriteByte(')')
	default:
		fmt.Fprintf(sb, "?expr %T", e)
	}
}

// HasBodyTypeDefs reports whether any function body or global
// initializer in f contains an inline struct definition. Re-checking
// such code against an environment that already laid the struct out
// would report a spurious redefinition, so files carrying one are
// ineligible for incremental checking (a full re-check handles them
// exactly as before).
func HasBodyTypeDefs(f *File) bool {
	found := false
	seeDef := func(te TypeExpr) {
		if typeHasDef(te) {
			found = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *VarDecl:
			if d.Init != nil {
				walkExpr(d.Init, seeDef)
			}
		case *FuncDecl:
			if d.Body != nil {
				walkStmt(d.Body, seeDef)
			}
		}
		if found {
			return true
		}
	}
	return false
}

// typeHasDef reports whether a type expression contains an inline
// struct or enum definition at any nesting depth.
func typeHasDef(te TypeExpr) bool {
	switch te := te.(type) {
	case *structDefTE, *enumDefTE:
		return true
	case *PtrTE:
		return typeHasDef(te.Elem)
	case *ArrayTE:
		return typeHasDef(te.Elem)
	case *FuncTE:
		if typeHasDef(te.Ret) {
			return true
		}
		for _, p := range te.Params {
			if typeHasDef(p) {
				return true
			}
		}
	}
	return false
}

// walkStmt visits every type expression reachable from a statement:
// local declaration types and the types buried in casts and sizeofs.
func walkStmt(s Stmt, seeType func(TypeExpr)) {
	switch s := s.(type) {
	case nil:
	case *Block:
		for _, st := range s.Stmts {
			walkStmt(st, seeType)
		}
	case *DeclStmt:
		seeType(s.Decl.Type)
		if s.Decl.Init != nil {
			walkExpr(s.Decl.Init, seeType)
		}
	case *ExprStmt:
		walkExpr(s.X, seeType)
	case *If:
		walkExpr(s.Cond, seeType)
		walkStmt(s.Then, seeType)
		walkStmt(s.Else, seeType)
	case *While:
		walkExpr(s.Cond, seeType)
		walkStmt(s.Body, seeType)
	case *For:
		walkStmt(s.Init, seeType)
		if s.Cond != nil {
			walkExpr(s.Cond, seeType)
		}
		if s.Post != nil {
			walkExpr(s.Post, seeType)
		}
		walkStmt(s.Body, seeType)
	case *Switch:
		walkExpr(s.Cond, seeType)
		for i := range s.Cases {
			for _, v := range s.Cases[i].Values {
				walkExpr(v, seeType)
			}
			for _, st := range s.Cases[i].Body {
				walkStmt(st, seeType)
			}
		}
	case *Return:
		if s.X != nil {
			walkExpr(s.X, seeType)
		}
	}
}

func walkExpr(e Expr, seeType func(TypeExpr)) {
	switch e := e.(type) {
	case nil:
	case *Unary:
		walkExpr(e.X, seeType)
	case *Postfix:
		walkExpr(e.X, seeType)
	case *Binary:
		walkExpr(e.X, seeType)
		walkExpr(e.Y, seeType)
	case *AssignExpr:
		walkExpr(e.LHS, seeType)
		walkExpr(e.RHS, seeType)
	case *CondExpr:
		walkExpr(e.Cond, seeType)
		walkExpr(e.Then, seeType)
		walkExpr(e.Else, seeType)
	case *Call:
		walkExpr(e.Fun, seeType)
		for _, a := range e.Args {
			walkExpr(a, seeType)
		}
	case *Index:
		walkExpr(e.X, seeType)
		walkExpr(e.I, seeType)
	case *FieldAccess:
		walkExpr(e.X, seeType)
	case *Cast:
		seeType(e.Type)
		walkExpr(e.X, seeType)
	case *SizeofType:
		seeType(e.Type)
	case *SizeofExpr:
		walkExpr(e.X, seeType)
	}
}

// HasImplicitFuncs reports whether checking recorded any C89-style
// implicit function declaration. An implicit declaration is created by
// a *call site* inside a body, so a body edit can add or remove one —
// the declaration environment then depends on bodies and the
// signature-only reuse argument no longer holds.
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
// prev must be error-free, must cover the same path set, every
// changed file's DeclSignature must equal its previous version's, no
// changed file (old or new) may contain body-level type definitions
// (HasBodyTypeDefs), and prev must be free of implicit function
// declarations (HasImplicitFuncs).
//
// The returned Info never aliases prev's maps — prev stays valid as
// an immutable base, so several deltas can be checked
// against it concurrently. The per-name maps are complete copies;
// Uses has a table only for each changed file, and the other per-node
// fact maps hold entries only for changed files' global initializers
// and function bodies. Retained objects (struct layouts, function and
// global objects) are shared, never mutated.
func CheckIncremental(prev *Info, files []*File, changed map[string]bool) *Info {
	c := &checker{
		info: &Info{
			Uses:     make(map[*File][]any, len(changed)),
			Fields:   make(map[*FieldAccess]FieldInfo),
			Structs:  copyStrMap(prev.Structs),
			Typedefs: copyStrMap(prev.Typedefs),
			Funcs:    copyStrMap(prev.Funcs),
			Globals:  copyStrMap(prev.Globals),
			Enums:    copyStrMap(prev.Enums),
			FuncInfo: make(map[*FuncDecl]*FuncInfo),
			Sizeofs:  make(map[Expr]int64),
			PtrArith: make(map[*Binary]Expr),
		},
		laying: make(map[string]bool),
	}
	for _, f := range files {
		if !changed[f.Path] {
			continue
		}
		c.file = f.Path
		c.uses = make([]any, f.NumIdents)
		c.info.Uses[f] = c.uses
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
