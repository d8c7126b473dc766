package cminor

// File is one parsed translation unit. The parser numbers the file's
// identifiers densely in source order (Ident.ID), and its function
// definitions (FuncDecl.Index), so per-identifier and per-function
// facts live in tables of NumIdents and NumBodies entries rather than
// in maps keyed by node. NumTokens is what the file charged its
// TokenBudget. A File keeps its source, which its identifiers' names
// are read from (Name). A File is never written after Parse returns:
// incremental runs share it between concurrent checks.
type File struct {
	Path      string
	Decls     []Decl
	NumIdents int
	NumBodies int
	NumTokens int
	src       string
	// bodyTypeDefs is set when a struct or enum is defined inside a
	// function body or a global initializer (see SameDecls).
	bodyTypeDefs bool
}

// Name returns the name of one of the file's identifiers: its
// spelling in the file's source.
func (f *File) Name(id *Ident) string {
	end := int(id.off)
	for end < len(f.src) && isIdentCont(f.src[end]) {
		end++
	}
	return f.src[id.off:end]
}

// Decl is a top-level or block-level declaration.
type Decl interface{ declPos() Pos }

// StructDecl declares a struct or union type with named fields.
type StructDecl struct {
	Pos    Pos
	Name   string
	Union  bool
	Fields []FieldDecl
	// Opaque is true for "struct name;" forward declarations whose
	// body never appears; such types can only be used behind pointers.
	Opaque bool
	// Anon is set when the parser synthesized Name for a struct
	// defined without a tag.
	Anon bool
}

// FieldDecl is one member of a struct or union. Pos is the token
// after its declarator; Start is the first token of the declaration
// it is part of.
type FieldDecl struct {
	Pos   Pos
	Start Pos
	Name  string
	Type  TypeExpr
}

// EnumDecl declares an enum type; each item is an integer constant.
type EnumDecl struct {
	Pos   Pos
	Name  string // tag, synthesized when Anon is set
	Items []EnumItem
	Anon  bool
}

// EnumItem is one enumerator; Value is nil for implicit (previous+1).
type EnumItem struct {
	Pos   Pos
	Name  string
	Value Expr
}

func (d *EnumDecl) declPos() Pos { return d.Pos }

// TypedefDecl introduces a type alias.
type TypedefDecl struct {
	Pos  Pos
	Name string
	Type TypeExpr
}

// VarDecl declares a variable (global or local) with an optional
// initializer.
type VarDecl struct {
	Pos  Pos
	Name string
	Type TypeExpr
	Init Expr // may be nil
}

// FuncDecl declares or defines a function. Body is nil for externs and
// prototypes.
type FuncDecl struct {
	Pos      Pos
	Name     string
	Ret      TypeExpr
	Params   []Param
	Variadic bool
	Body     *Block
	Extern   bool
	// Index numbers a definition among its file's definitions, in
	// source order; it is 0 for a prototype.
	Index int
	// declOff, bodyOff and bodyEnd are the byte offsets of the
	// definition's first token, of its body's "{" and of the token
	// after its "}" (see SameDecls). declOff is -1 for a definition
	// that cannot be cut out of its file whole: one that shares its
	// declaration with other declarators or defines a type.
	declOff, bodyOff, bodyEnd int32
}

// Param is one formal parameter.
type Param struct {
	Pos  Pos
	Name string // may be "" in prototypes
	Type TypeExpr
}

func (d *StructDecl) declPos() Pos  { return d.Pos }
func (d *TypedefDecl) declPos() Pos { return d.Pos }
func (d *VarDecl) declPos() Pos     { return d.Pos }
func (d *FuncDecl) declPos() Pos    { return d.Pos }

// TypeExpr is a syntactic type, resolved to a Type by the checker.
type TypeExpr interface{ typeExpr() }

// NameTE is a builtin ("int", "char", "long", "void", "unsigned") or a
// typedef name.
type NameTE struct{ Name string }

// StructTE references a struct or union by tag.
type StructTE struct {
	Name  string
	Union bool
}

// EnumTE references an enum type (semantically int).
type EnumTE struct{ Name string }

func (*EnumTE) typeExpr() {}

// PtrTE is a pointer type.
type PtrTE struct{ Elem TypeExpr }

// ArrayTE is a fixed-size array type.
type ArrayTE struct {
	Elem TypeExpr
	N    int64
}

// FuncTE is a function type (used behind PtrTE for function pointers).
type FuncTE struct {
	Ret      TypeExpr
	Params   []TypeExpr
	Variadic bool
}

func (*NameTE) typeExpr()   {}
func (*StructTE) typeExpr() {}
func (*PtrTE) typeExpr()    {}
func (*ArrayTE) typeExpr()  {}
func (*FuncTE) typeExpr()   {}

// Stmt is a statement.
type Stmt interface{ stmtPos() Pos }

// Block is a brace-enclosed statement list with its own scope.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt wraps a local variable declaration.
type DeclStmt struct{ Decl *VarDecl }

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// If is if/else.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop; DoWhile distinguishes do { } while (c);.
type While struct {
	Pos     Pos
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// For is a C for loop. Init may be a DeclStmt or ExprStmt (or nil);
// Cond and Post may be nil.
type For struct {
	Pos  Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Switch is a C switch statement. Cases execute with C fallthrough
// semantics; break exits the switch.
type Switch struct {
	Pos   Pos
	Cond  Expr
	Cases []SwitchCase
}

// SwitchCase is one case (or default) label group with its statements.
type SwitchCase struct {
	Pos     Pos
	Values  []Expr // nil for default
	Default bool
	Body    []Stmt
}

func (s *Switch) stmtPos() Pos { return s.Pos }

// Return returns from the enclosing function; X may be nil.
type Return struct {
	Pos Pos
	X   Expr
}

// Break exits the innermost loop.
type Break struct{ Pos Pos }

// Continue re-tests the innermost loop.
type Continue struct{ Pos Pos }

// Empty is a lone semicolon.
type Empty struct{ Pos Pos }

func (s *Block) stmtPos() Pos    { return s.Pos }
func (s *DeclStmt) stmtPos() Pos { return s.Decl.Pos }
func (s *ExprStmt) stmtPos() Pos { return s.Pos }
func (s *If) stmtPos() Pos       { return s.Pos }
func (s *While) stmtPos() Pos    { return s.Pos }
func (s *For) stmtPos() Pos      { return s.Pos }
func (s *Return) stmtPos() Pos   { return s.Pos }
func (s *Break) stmtPos() Pos    { return s.Pos }
func (s *Continue) stmtPos() Pos { return s.Pos }
func (s *Empty) stmtPos() Pos    { return s.Pos }

// Expr is an expression.
type Expr interface{ exprPos() Pos }

// ExprPos returns an expression's source position.
func ExprPos(e Expr) Pos { return e.exprPos() }

// StmtPos returns a statement's source position.
func StmtPos(s Stmt) Pos { return s.stmtPos() }

// Ident names a variable or function. ID is its index among its
// file's identifiers, 0..File.NumIdents-1 in source order, and off the
// byte offset of its name in the file's source (see File.Name). It
// holds no pointer.
type Ident struct {
	Pos Pos
	ID  int32
	off int32
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	V   int64
}

// StrLit is a string literal.
type StrLit struct {
	Pos Pos
	V   string
}

// Null is the NULL constant.
type Null struct{ Pos Pos }

// Unary is a prefix operator: one of ! - ~ * & ++ --.
type Unary struct {
	Pos Pos
	Op  Kind
	X   Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	Pos Pos
	Op  Kind // Inc or Dec
	X   Expr
}

// Binary is an infix operator.
type Binary struct {
	Pos  Pos
	Op   Kind
	X, Y Expr
}

// AssignExpr is LHS = RHS (or += / -=).
type AssignExpr struct {
	Pos Pos
	Op  Kind // Assign, PlusAssign, MinusAssign
	LHS Expr
	RHS Expr
}

// CondExpr is c ? t : f.
type CondExpr struct {
	Pos  Pos
	Cond Expr
	Then Expr
	Else Expr
}

// Call is a function call; Fun may be an Ident (direct or via function
// pointer variable) or any expression yielding a function pointer.
type Call struct {
	Pos  Pos
	Fun  Expr
	Args []Expr
}

// Index is array indexing x[i].
type Index struct {
	Pos Pos
	X   Expr
	I   Expr
}

// FieldAccess is x.name or x->name.
type FieldAccess struct {
	Pos   Pos
	X     Expr
	Name  string
	Arrow bool
}

// Cast is (type)x.
type Cast struct {
	Pos  Pos
	Type TypeExpr
	X    Expr
}

// SizeofType is sizeof(type). sizeof expr parses as SizeofExpr.
type SizeofType struct {
	Pos  Pos
	Type TypeExpr
}

// SizeofExpr is sizeof expr.
type SizeofExpr struct {
	Pos Pos
	X   Expr
}

func (e *Ident) exprPos() Pos       { return e.Pos }
func (e *IntLit) exprPos() Pos      { return e.Pos }
func (e *StrLit) exprPos() Pos      { return e.Pos }
func (e *Null) exprPos() Pos        { return e.Pos }
func (e *Unary) exprPos() Pos       { return e.Pos }
func (e *Postfix) exprPos() Pos     { return e.Pos }
func (e *Binary) exprPos() Pos      { return e.Pos }
func (e *AssignExpr) exprPos() Pos  { return e.Pos }
func (e *CondExpr) exprPos() Pos    { return e.Pos }
func (e *Call) exprPos() Pos        { return e.Pos }
func (e *Index) exprPos() Pos       { return e.Pos }
func (e *FieldAccess) exprPos() Pos { return e.Pos }
func (e *Cast) exprPos() Pos        { return e.Pos }
func (e *SizeofType) exprPos() Pos  { return e.Pos }
func (e *SizeofExpr) exprPos() Pos  { return e.Pos }
