package cminor

import (
	"fmt"
	"sort"
)

// VarObject is a resolved variable (global, parameter, or local).
type VarObject struct {
	Name   string
	Type   Type
	Global bool
	Param  bool
	Decl   *VarDecl // nil for parameters
	Func   *FuncDecl
}

// FuncObject is a resolved function.
type FuncObject struct {
	Name     string
	Type     *FuncType
	Decl     *FuncDecl // the defining decl if any, else the first prototype
	Implicit bool      // called without any declaration (C89 style)
}

// EnumConst is a named enum constant.
type EnumConst struct {
	Name  string
	Value int64
	Enum  string // tag of the declaring enum
}

// FieldInfo resolves one FieldAccess expression.
type FieldInfo struct {
	Struct *StructType
	Field  *Field
}

// FuncInfo lists a function's parameters and locals in declaration
// order for the IR lowering.
type FuncInfo struct {
	Obj    *FuncObject
	Params []*VarObject
	Locals []*VarObject
}

// Info is the checker's output: type and symbol resolution for one
// program (possibly several files).
type Info struct {
	Types    map[Expr]Type
	Uses     map[*Ident]interface{} // *VarObject or *FuncObject
	Fields   map[*FieldAccess]FieldInfo
	Structs  map[string]*StructType
	Typedefs map[string]Type
	Funcs    map[string]*FuncObject
	Globals  map[string]*VarObject
	Enums    map[string]*EnumConst // by constant name
	FuncInfo map[*FuncDecl]*FuncInfo
	// Sizeofs records the byte size each sizeof expression yields.
	Sizeofs map[Expr]int64
	Errors  []*Error
}

// FuncNames returns the defined and declared function names, sorted.
func (info *Info) FuncNames() []string {
	names := make([]string, 0, len(info.Funcs))
	for n := range info.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type checker struct {
	info   *Info
	scopes []map[string]*VarObject
	cur    *FuncInfo

	laying map[string]bool // struct layout cycle detection
}

// Check resolves and type-checks the given files as one program.
// It always returns an Info; Info.Errors collects diagnostics.
func Check(files ...*File) *Info {
	c := &checker{
		info: &Info{
			Types:    make(map[Expr]Type),
			Uses:     make(map[*Ident]interface{}),
			Fields:   make(map[*FieldAccess]FieldInfo),
			Structs:  make(map[string]*StructType),
			Typedefs: make(map[string]Type),
			Funcs:    make(map[string]*FuncObject),
			Globals:  make(map[string]*VarObject),
			Enums:    make(map[string]*EnumConst),
			FuncInfo: make(map[*FuncDecl]*FuncInfo),
			Sizeofs:  make(map[Expr]int64),
		},
		laying: make(map[string]bool),
	}
	// Pass 1: struct tags and typedefs (typedefs resolve in order).
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *StructDecl:
				c.declareStruct(d)
			case *EnumDecl:
				c.declareEnum(d)
			case *TypedefDecl:
				c.info.Typedefs[d.Name] = c.resolve(d.Type, d.Pos)
			}
		}
	}
	// Pass 2: layout every defined struct.
	var tags []string
	for tag := range c.info.Structs {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		c.layoutStruct(tag, Pos{})
	}
	// Pass 3: functions and globals (signatures first so forward calls
	// resolve).
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *FuncDecl:
				c.declareFunc(d)
			case *VarDecl:
				c.declareGlobal(d)
			}
		}
	}
	// Pass 4: function bodies.
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
				c.checkFuncBody(fd)
			}
		}
	}
	return c.info
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	if len(c.info.Errors) < 200 {
		c.info.Errors = append(c.info.Errors, errf(pos, format, args...))
	}
}

func (c *checker) declareStruct(d *StructDecl) {
	st, ok := c.info.Structs[d.Name]
	if !ok {
		st = &StructType{Name: d.Name, Union: d.Union, Opaque: true}
		c.info.Structs[d.Name] = st
	}
	if d.Opaque {
		return
	}
	if len(d.Fields) > 0 {
		if !st.Opaque {
			c.errorf(d.Pos, "struct %s redefined", d.Name)
			return
		}
		st.Opaque = false
		st.Union = d.Union
		for _, fd := range d.Fields {
			st.Fields = append(st.Fields, Field{Name: fd.Name, Type: c.resolve(fd.Type, fd.Pos)})
		}
	}
}

// declareEnum registers an enum's constants, evaluating values with
// C's previous+1 default.
func (c *checker) declareEnum(d *EnumDecl) {
	next := int64(0)
	for _, item := range d.Items {
		v := next
		if item.Value != nil {
			ev, ok := c.constEval(item.Value)
			if !ok {
				c.errorf(item.Pos, "enumerator %s value is not a constant expression", item.Name)
			} else {
				v = ev
			}
		}
		if _, dup := c.info.Enums[item.Name]; dup {
			c.errorf(item.Pos, "enumerator %s redeclared", item.Name)
		}
		c.info.Enums[item.Name] = &EnumConst{Name: item.Name, Value: v, Enum: d.Name}
		next = v + 1
	}
}

// constEval evaluates integer constant expressions (enum values, case
// labels).
func (c *checker) constEval(e Expr) (int64, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.V, true
	case *Ident:
		if ec, ok := c.info.Enums[e.Name]; ok {
			return ec.Value, true
		}
	case *Unary:
		v, ok := c.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case Minus:
			return -v, true
		case Tilde:
			return ^v, true
		case Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *Binary:
		x, okx := c.constEval(e.X)
		y, oky := c.constEval(e.Y)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case Plus:
			return x + y, true
		case Minus:
			return x - y, true
		case Star:
			return x * y, true
		case Slash:
			if y != 0 {
				return x / y, true
			}
		case Percent:
			if y != 0 {
				return x % y, true
			}
		case Pipe:
			return x | y, true
		case Amp:
			return x & y, true
		case Caret:
			return x ^ y, true
		}
	}
	return 0, false
}

// layoutStruct computes the layout of the named struct, recursing into
// embedded struct fields with cycle detection.
func (c *checker) layoutStruct(tag string, pos Pos) {
	st := c.info.Structs[tag]
	if st == nil || st.Opaque || st.size > 0 {
		return
	}
	if c.laying[tag] {
		c.errorf(pos, "struct %s embeds itself (use a pointer)", tag)
		return
	}
	c.laying[tag] = true
	for _, f := range st.Fields {
		if inner, ok := baseStruct(f.Type); ok {
			c.layoutStruct(inner.Name, pos)
		}
	}
	st.layOut()
	delete(c.laying, tag)
}

// baseStruct unwraps arrays to find a directly-embedded struct type.
func baseStruct(t Type) (*StructType, bool) {
	for {
		switch tt := t.(type) {
		case *ArrayType:
			t = tt.Elem
		case *StructType:
			return tt, true
		default:
			return nil, false
		}
	}
}

// resolve turns a syntactic type into a semantic one.
func (c *checker) resolve(te TypeExpr, pos Pos) Type {
	switch te := te.(type) {
	case *NameTE:
		switch te.Name {
		case "int":
			return TypeInt
		case "char":
			return TypeChar
		case "long":
			return TypeLong
		case "unsigned":
			return TypeUInt
		case "void":
			return TypeVoid
		}
		if t, ok := c.info.Typedefs[te.Name]; ok {
			return t
		}
		c.errorf(pos, "unknown type %q", te.Name)
		return TypeInt
	case *structDefTE:
		c.declareStruct(te.def)
		c.layoutStruct(te.Name, pos)
		return c.structRef(te.Name, te.Union)
	case *enumDefTE:
		// Items may already be declared by pass 1; declareEnum guards
		// duplicates only by name, so re-declaration of the same decl
		// is skipped.
		if _, seen := c.info.Enums[firstEnumItem(te.def)]; !seen {
			c.declareEnum(te.def)
		}
		return TypeInt
	case *EnumTE:
		return TypeInt
	case *StructTE:
		return c.structRef(te.Name, te.Union)
	case *PtrTE:
		return &PtrType{Elem: c.resolve(te.Elem, pos)}
	case *ArrayTE:
		return &ArrayType{Elem: c.resolve(te.Elem, pos), N: te.N}
	case *FuncTE:
		ft := &FuncType{Ret: c.resolve(te.Ret, pos), Variadic: te.Variadic}
		for _, p := range te.Params {
			ft.Params = append(ft.Params, c.resolve(p, pos))
		}
		return ft
	}
	c.errorf(pos, "unresolvable type")
	return TypeInt
}

func firstEnumItem(d *EnumDecl) string {
	if len(d.Items) > 0 {
		return d.Items[0].Name
	}
	return ""
}

func (c *checker) structRef(tag string, union bool) *StructType {
	if st, ok := c.info.Structs[tag]; ok {
		return st
	}
	st := &StructType{Name: tag, Union: union, Opaque: true}
	c.info.Structs[tag] = st
	return st
}

func (c *checker) declareFunc(d *FuncDecl) {
	ft := &FuncType{Ret: c.resolve(d.Ret, d.Pos), Variadic: d.Variadic}
	for _, p := range d.Params {
		ft.Params = append(ft.Params, c.resolve(p.Type, p.Pos))
	}
	if prev, ok := c.info.Funcs[d.Name]; ok {
		// Later definition supersedes prototype.
		if d.Body != nil {
			if prev.Decl != nil && prev.Decl.Body != nil {
				c.errorf(d.Pos, "function %s redefined", d.Name)
				return
			}
			prev.Decl = d
			prev.Type = ft
			prev.Implicit = false
		}
		return
	}
	c.info.Funcs[d.Name] = &FuncObject{Name: d.Name, Type: ft, Decl: d}
}

func (c *checker) declareGlobal(d *VarDecl) {
	if prev, ok := c.info.Globals[d.Name]; ok {
		// C extern declarations and tentative definitions: merging is
		// fine as long as at most one declaration initializes.
		if d.Init != nil {
			if prev.Decl != nil && prev.Decl.Init != nil {
				c.errorf(d.Pos, "global %s initialized twice", d.Name)
				return
			}
			prev.Decl = d
			c.checkExpr(d.Init)
		}
		return
	}
	obj := &VarObject{Name: d.Name, Type: c.resolve(d.Type, d.Pos), Global: true, Decl: d}
	c.info.Globals[d.Name] = obj
	if d.Init != nil {
		c.checkExpr(d.Init)
	}
}

// --- scopes ---

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*VarObject)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) define(obj *VarObject, pos Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, ok := top[obj.Name]; ok {
		c.errorf(pos, "%s redeclared in this scope", obj.Name)
	}
	top[obj.Name] = obj
}

func (c *checker) lookupVar(name string) *VarObject {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if obj, ok := c.scopes[i][name]; ok {
			return obj
		}
	}
	return c.info.Globals[name]
}

// --- function bodies ---

func (c *checker) checkFuncBody(fd *FuncDecl) {
	obj := c.info.Funcs[fd.Name]
	fi := &FuncInfo{Obj: obj}
	c.info.FuncInfo[fd] = fi
	c.cur = fi
	c.pushScope()
	for i, p := range fd.Params {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("__arg%d", i)
		}
		v := &VarObject{Name: name, Type: obj.Type.Params[i], Param: true, Func: fd}
		fi.Params = append(fi.Params, v)
		c.define(v, p.Pos)
	}
	c.checkBlock(fd.Body)
	c.popScope()
	c.cur = nil
}

func (c *checker) checkBlock(b *Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		c.checkBlock(s)
	case *DeclStmt:
		d := s.Decl
		obj := &VarObject{Name: d.Name, Type: c.resolve(d.Type, d.Pos), Decl: d, Func: c.cur.Obj.Decl}
		c.cur.Locals = append(c.cur.Locals, obj)
		c.define(obj, d.Pos)
		if d.Init != nil {
			c.checkExpr(d.Init)
		}
	case *ExprStmt:
		c.checkExpr(s.X)
	case *If:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *While:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Body)
	case *For:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.checkStmt(s.Body)
		c.popScope()
	case *Switch:
		c.checkExpr(s.Cond)
		for i := range s.Cases {
			cs := &s.Cases[i]
			for _, v := range cs.Values {
				c.checkExpr(v)
				if _, ok := c.constEval(v); !ok {
					c.errorf(ExprPos(v), "case label is not a constant expression")
				}
			}
			c.pushScope()
			for _, st := range cs.Body {
				c.checkStmt(st)
			}
			c.popScope()
		}
	case *Return:
		if s.X != nil {
			c.checkExpr(s.X)
		}
	case *Break, *Continue, *Empty:
	default:
		c.errorf(s.stmtPos(), "unsupported statement")
	}
}

// checkExpr types an expression, recording the result in Info.Types.
func (c *checker) checkExpr(e Expr) Type {
	t := c.typeOf(e)
	c.info.Types[e] = t
	return t
}

func (c *checker) typeOf(e Expr) Type {
	switch e := e.(type) {
	case *Ident:
		if v := c.lookupVar(e.Name); v != nil {
			c.info.Uses[e] = v
			return v.Type
		}
		if ec, ok := c.info.Enums[e.Name]; ok {
			c.info.Uses[e] = ec
			return TypeInt
		}
		if f, ok := c.info.Funcs[e.Name]; ok {
			c.info.Uses[e] = f
			return &PtrType{Elem: f.Type}
		}
		c.errorf(e.Pos, "undeclared identifier %q", e.Name)
		// Define it as an int global so downstream phases have an
		// object; C compilers issue the same courtesy.
		v := &VarObject{Name: e.Name, Type: TypeInt, Global: true}
		c.info.Globals[e.Name] = v
		c.info.Uses[e] = v
		return v.Type
	case *IntLit:
		if e.V > 1<<31-1 || e.V < -(1<<31) {
			return TypeLong
		}
		return TypeInt
	case *StrLit:
		return &PtrType{Elem: TypeChar}
	case *Null:
		return TypeVoidPtr
	case *Unary:
		xt := c.checkExpr(e.X)
		switch e.Op {
		case Star:
			if elem, ok := Deref(xt); ok {
				return elem
			}
			c.errorf(e.Pos, "cannot dereference %s", xt)
			return TypeInt
		case Amp:
			return &PtrType{Elem: xt}
		case Not:
			return TypeInt
		case Inc, Dec:
			return xt
		default: // Minus, Tilde
			return xt
		}
	case *Postfix:
		return c.checkExpr(e.X)
	case *Binary:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		switch e.Op {
		case Eq, Neq, Lt, Gt, Le, Ge, AndAnd, OrOr:
			return TypeInt
		case Plus, Minus:
			// Pointer arithmetic keeps the pointer type.
			if IsPointer(xt) {
				return xt
			}
			if IsPointer(yt) {
				return yt
			}
			return xt
		default:
			return xt
		}
	case *AssignExpr:
		lt := c.checkExpr(e.LHS)
		c.checkExpr(e.RHS)
		return lt
	case *CondExpr:
		c.checkExpr(e.Cond)
		tt := c.checkExpr(e.Then)
		et := c.checkExpr(e.Else)
		if IsPointer(tt) {
			return tt
		}
		if IsPointer(et) {
			return et
		}
		return tt
	case *Call:
		// Direct call to an undeclared function: implicit declaration.
		if id, ok := e.Fun.(*Ident); ok {
			if c.lookupVar(id.Name) == nil {
				if _, ok := c.info.Funcs[id.Name]; !ok {
					c.info.Funcs[id.Name] = &FuncObject{
						Name:     id.Name,
						Type:     &FuncType{Ret: TypeInt, Variadic: true},
						Implicit: true,
					}
				}
			}
		}
		ft := c.funcTypeOf(c.checkExpr(e.Fun), e.Pos)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		if ft == nil {
			return TypeInt
		}
		if !ft.Variadic && len(e.Args) != len(ft.Params) {
			c.errorf(e.Pos, "call has %d args, function takes %d", len(e.Args), len(ft.Params))
		}
		return ft.Ret
	case *Index:
		xt := c.checkExpr(e.X)
		c.checkExpr(e.I)
		if elem, ok := Deref(xt); ok {
			return elem
		}
		c.errorf(e.Pos, "cannot index %s", xt)
		return TypeInt
	case *FieldAccess:
		xt := c.checkExpr(e.X)
		st := xt
		if e.Arrow {
			elem, ok := Deref(xt)
			if !ok {
				c.errorf(e.Pos, "-> on non-pointer %s", xt)
				return TypeInt
			}
			st = elem
		}
		sty, ok := st.(*StructType)
		if !ok {
			c.errorf(e.Pos, "field access on non-struct %s", st)
			return TypeInt
		}
		if sty.Opaque {
			c.errorf(e.Pos, "field access on opaque %s", sty)
			return TypeInt
		}
		f := sty.FieldByName(e.Name)
		if f == nil {
			c.errorf(e.Pos, "%s has no field %q", sty, e.Name)
			return TypeInt
		}
		c.info.Fields[e] = FieldInfo{Struct: sty, Field: f}
		return f.Type
	case *Cast:
		c.checkExpr(e.X)
		return c.resolve(e.Type, e.Pos)
	case *SizeofType:
		t := c.resolve(e.Type, e.Pos)
		c.info.Sizeofs[e] = t.Size()
		return TypeLong
	case *SizeofExpr:
		t := c.checkExpr(e.X)
		c.info.Sizeofs[e] = t.Size()
		return TypeLong
	}
	c.errorf(e.exprPos(), "unsupported expression")
	return TypeInt
}

// funcTypeOf extracts a callable signature from t.
func (c *checker) funcTypeOf(t Type, pos Pos) *FuncType {
	switch t := t.(type) {
	case *FuncType:
		return t
	case *PtrType:
		if ft, ok := t.Elem.(*FuncType); ok {
			return ft
		}
	}
	c.errorf(pos, "called object has type %s, not a function", t)
	return nil
}
