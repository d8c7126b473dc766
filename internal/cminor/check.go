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
	// Index numbers a parameter or local within its function: its
	// position in FuncInfo.Params followed by FuncInfo.Locals (see
	// FuncInfo.Var). A global's is its number in Info.Objects.
	Index int
}

// FuncObject is a resolved function.
type FuncObject struct {
	Name     string
	Type     *FuncType
	Decl     *FuncDecl // the defining decl if any, else the first prototype
	Implicit bool      // called without any declaration (C89 style)
	Index    int       // its number in Info.Objects
}

// EnumConst is a named enum constant.
type EnumConst struct {
	Name  string
	Value int64
	Enum  string // tag of the declaring enum
	Index int    // its number in Info.Objects
}

// ref is the Uses entry of an identifier naming v.
func (v *VarObject) ref() int32 {
	if v.Global {
		return int32(v.Index)
	}
	return int32(-1 - v.Index)
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

// Var returns the parameter or local whose VarObject.Index is i.
func (fi *FuncInfo) Var(i int) *VarObject {
	if i < len(fi.Params) {
		return fi.Params[i]
	}
	return fi.Locals[i-len(fi.Params)]
}

// Info is the checker's output for one program (possibly several
// files): the declaration environment, symbol resolution, and the few
// per-expression facts the IR lowering reads. Expression types are
// computed while checking but not stored, and no fact is stored in
// the AST, which stays shared and read-only.
type Info struct {
	// Uses resolves identifiers: Uses[f][id.ID] encodes what
	// identifier id of file f names, and Object decodes it. It is 0
	// for an identifier the checker did not resolve (such as one in an
	// enumerator value), -1-i for the parameter or local of the
	// enclosing function whose VarObject.Index is i, and k > 0 for
	// Objects[k]. Each file's table has f.NumIdents entries.
	Uses map[*File][]int32
	// Objects numbers the file-scope objects from 1: every global
	// *VarObject, *FuncObject and *EnumConst, in the order the checker
	// declared them. Objects[0] is nil. An incremental check gives a
	// removed function's number to the next new object, and leaves it
	// nil when there is none (see CheckIncremental).
	Objects  []any
	Fields   map[*FieldAccess]FieldInfo
	Structs  map[string]*StructType
	Typedefs map[string]Type
	Funcs    map[string]*FuncObject
	Globals  map[string]*VarObject
	Enums    map[string]*EnumConst // by constant name
	// FuncInfo[f][fd.Index] lists the parameters and locals of
	// function definition fd of file f. It is zero for a redefinition
	// the checker rejected.
	FuncInfo map[*File][]FuncInfo
	// Sizeofs records the byte size each sizeof expression yields.
	Sizeofs map[Expr]int64
	// PtrArith maps each + or - with a pointer operand to that
	// operand: X when X is a pointer, else Y. Arithmetic on two
	// non-pointers has no entry.
	PtrArith map[*Binary]Expr
	Errors   []*Error
}

// Object returns what a Uses entry u names: nil for 0, the parameter
// or local of fi for a negative entry, else Objects[u]. fi is the
// FuncInfo of the function the identifier is in.
func (info *Info) Object(u int32, fi *FuncInfo) any {
	switch {
	case u < 0:
		return fi.Var(int(-1 - u))
	case u > 0:
		return info.Objects[u]
	}
	return nil
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
	info *Info
	// f is the file being checked, uses and funcs its Uses and
	// FuncInfo tables.
	f     *File
	uses  []int32
	funcs []FuncInfo
	// scopes is the block scope stack. Maps above the top stay in the
	// backing array, emptied, for the next block to reuse.
	scopes []map[string]*VarObject
	cur    *FuncInfo
	// first is the path of the check's first file (see tag).
	first string

	// free holds numbers in Info.Objects that a new object takes
	// before the table grows: an incremental check's removed functions'.
	free []int

	laying map[string]bool // struct layout cycle detection
	// bodies records where each struct's fields were declared, for
	// diagnostics about them.
	bodies map[string]structBody
}

// structBody is the declaration that gave a struct its fields, and
// the file it is in.
type structBody struct {
	file string
	decl *StructDecl
}

// Check resolves and type-checks the given files as one program.
// It always returns an Info; Info.Errors collects diagnostics.
func Check(files ...*File) *Info {
	// The symbol tables are sized from the files' declarations, each
	// function or global counted once per declaration.
	var nFuncs, nGlobals, nEnums int
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *FuncDecl:
				nFuncs++
			case *VarDecl:
				nGlobals++
			case *EnumDecl:
				nEnums += len(d.Items)
			}
		}
	}
	c := &checker{
		info: &Info{
			Uses:     make(map[*File][]int32, len(files)),
			Objects:  make([]any, 1, 1+nFuncs+nGlobals+nEnums),
			Fields:   make(map[*FieldAccess]FieldInfo),
			Structs:  make(map[string]*StructType),
			Typedefs: make(map[string]Type),
			Funcs:    make(map[string]*FuncObject, nFuncs),
			Globals:  make(map[string]*VarObject, nGlobals),
			Enums:    make(map[string]*EnumConst, nEnums),
			FuncInfo: make(map[*File][]FuncInfo, len(files)),
			Sizeofs:  make(map[Expr]int64),
			PtrArith: make(map[*Binary]Expr),
		},
		laying: make(map[string]bool),
		bodies: make(map[string]structBody),
	}
	for _, f := range files {
		c.info.Uses[f] = make([]int32, f.NumIdents)
		c.info.FuncInfo[f] = make([]FuncInfo, f.NumBodies)
	}
	if len(files) > 0 {
		c.first = files[0].Path
	}
	// Pass 1: struct tags and typedefs (typedefs resolve in order).
	for _, f := range files {
		c.enter(f)
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
		c.layoutStruct(tag)
	}
	// Pass 3: functions and globals (signatures first so forward calls
	// resolve).
	for _, f := range files {
		c.enter(f)
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
		c.enter(f)
		for _, d := range f.Decls {
			if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
				c.checkFuncBody(fd)
			}
		}
	}
	return c.info
}

// enter makes f the file being checked.
func (c *checker) enter(f *File) {
	c.f, c.uses, c.funcs = f, c.info.Uses[f], c.info.FuncInfo[f]
}

// object numbers a new file-scope object in Info.Objects.
func (c *checker) object(obj any) int {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.info.Objects[i] = obj
		return i
	}
	c.info.Objects = append(c.info.Objects, obj)
	return len(c.info.Objects) - 1
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	c.errorAt(c.f.Path, pos, format, args...)
}

// errorAt records a diagnostic at pos in file.
func (c *checker) errorAt(file string, pos Pos, format string, args ...interface{}) {
	if len(c.info.Errors) < 200 {
		c.info.Errors = append(c.info.Errors, errf(file, pos, format, args...))
	}
}

// tag returns the name a struct or enum definition of the file being
// checked is registered under: its tag, except that a tag the parser
// synthesized is qualified by the file's path in every file but the
// check's first. Every file numbers its anonymous types from 1, so
// this keeps them apart; a file's names depend only on its own path,
// and a lone file's stay as parsed.
func (c *checker) tag(name string, anon bool) string {
	if anon && c.f.Path != c.first {
		return name + "@" + c.f.Path
	}
	return name
}

func (c *checker) declareStruct(d *StructDecl) {
	tag := c.tag(d.Name, d.Anon)
	st, ok := c.info.Structs[tag]
	if !ok {
		st = &StructType{Name: tag, Union: d.Union, Opaque: true}
		c.info.Structs[tag] = st
	}
	if d.Opaque {
		return
	}
	if len(d.Fields) > 0 {
		if !st.Opaque {
			c.errorf(d.Pos, "struct %s redefined", tag)
			return
		}
		st.Opaque = false
		st.Union = d.Union
		c.bodies[tag] = structBody{file: c.f.Path, decl: d}
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
		ec := &EnumConst{Name: item.Name, Value: v, Enum: c.tag(d.Name, d.Anon)}
		ec.Index = c.object(ec)
		c.info.Enums[item.Name] = ec
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
		if ec, ok := c.info.Enums[c.f.Name(e)]; ok {
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
// embedded struct fields with cycle detection. A field that embeds a
// struct still being laid out is reported where it is declared.
func (c *checker) layoutStruct(tag string) {
	st := c.info.Structs[tag]
	if st == nil || st.Opaque || st.size > 0 {
		return
	}
	c.laying[tag] = true
	for i, f := range st.Fields {
		inner, ok := baseStruct(f.Type)
		if !ok {
			continue
		}
		if c.laying[inner.Name] {
			body := c.bodies[tag]
			c.errorAt(body.file, body.decl.Fields[i].Start, "struct %s embeds itself (use a pointer)", inner.Name)
			continue
		}
		c.layoutStruct(inner.Name)
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
		// A file-scope definition ("typedef struct s {...} T;") also
		// reaches pass 1 as a StructDecl; declare it only once.
		tag := c.tag(te.Name, te.def.Anon)
		if c.bodies[tag].decl != te.def {
			c.declareStruct(te.def)
		}
		c.layoutStruct(tag)
		return c.structRef(tag, te.Union)
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
	fo := &FuncObject{Name: d.Name, Type: ft, Decl: d}
	fo.Index = c.object(fo)
	c.info.Funcs[d.Name] = fo
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
	obj.Index = c.object(obj)
	c.info.Globals[d.Name] = obj
	if d.Init != nil {
		c.checkExpr(d.Init)
	}
}

// --- scopes ---

func (c *checker) pushScope() {
	n := len(c.scopes)
	if n == cap(c.scopes) {
		c.scopes = append(c.scopes, nil)
	}
	c.scopes = c.scopes[:n+1]
	if c.scopes[n] == nil {
		c.scopes[n] = make(map[string]*VarObject)
	}
}

// popScope empties the top scope for reuse. A map that grew large is
// dropped instead, so one huge block does not make every later clear
// pay for its buckets.
func (c *checker) popScope() {
	n := len(c.scopes) - 1
	if top := c.scopes[n]; len(top) > maxReusedScope {
		c.scopes[n] = nil
	} else {
		clear(top)
	}
	c.scopes = c.scopes[:n]
}

const maxReusedScope = 64

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
	if len(obj.Type.Params) != len(fd.Params) {
		// A redefinition declareFunc rejected, with another parameter
		// list: there is no signature to check its body against.
		return
	}
	fi := &c.funcs[fd.Index]
	fi.Obj = obj
	c.cur = fi
	c.pushScope()
	for i, p := range fd.Params {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("__arg%d", i)
		}
		v := &VarObject{Name: name, Type: obj.Type.Params[i], Param: true, Index: i}
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
		obj := &VarObject{Name: d.Name, Type: c.resolve(d.Type, d.Pos), Decl: d,
			Index: len(c.cur.Params) + len(c.cur.Locals)}
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

// checkExpr types an expression, recording the facts lowering reads
// (Uses, Fields, Sizeofs, PtrArith) along the way.
func (c *checker) checkExpr(e Expr) Type {
	switch e := e.(type) {
	case *Ident:
		name := c.f.Name(e)
		if v := c.lookupVar(name); v != nil {
			c.uses[e.ID] = v.ref()
			return v.Type
		}
		if ec, ok := c.info.Enums[name]; ok {
			c.uses[e.ID] = int32(ec.Index)
			return TypeInt
		}
		if f, ok := c.info.Funcs[name]; ok {
			c.uses[e.ID] = int32(f.Index)
			return &PtrType{Elem: f.Type}
		}
		c.errorf(e.Pos, "undeclared identifier %q", name)
		// Define it as an int global so downstream phases have an
		// object; C compilers issue the same courtesy.
		v := &VarObject{Name: name, Type: TypeInt, Global: true}
		v.Index = c.object(v)
		c.info.Globals[name] = v
		c.uses[e.ID] = v.ref()
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
				c.info.PtrArith[e] = e.X
				return xt
			}
			if IsPointer(yt) {
				c.info.PtrArith[e] = e.Y
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
			if name := c.f.Name(id); c.lookupVar(name) == nil {
				if _, ok := c.info.Funcs[name]; !ok {
					fo := &FuncObject{
						Name:     name,
						Type:     &FuncType{Ret: TypeInt, Variadic: true},
						Implicit: true,
					}
					fo.Index = c.object(fo)
					c.info.Funcs[name] = fo
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
