package cminor

import (
	"fmt"
	"math"

	"repro/internal/slab"
)

// Parser builds a File from tokens. It keeps a registry of typedef and
// struct names so casts can be distinguished from parenthesized
// expressions the way a C compiler does.
type Parser struct {
	lx   *Lexer
	tok  Token
	peek Token
	errs []*Error

	typedefs   map[string]bool
	lastParams []string // names from the most recent parseParamTypes
	anonCount  int

	// inBody is set while a function body or a global initializer is
	// parsed; a struct or enum defined there sets bodyTypeDefs. Only a
	// file-scope declaration is outside every body, so leaving a body
	// or initializer resets inBody to mode != declTop.
	inBody, bodyTypeDefs bool
	// typeDefs counts the struct and enum bodies parsed so far.
	typeDefs int

	// Nesting budget (see maxNesting). depth counts the levels
	// enclosing the construct being parsed; peak is the deepest level
	// reached since the innermost open scope began, counting the levels
	// wrap added to operands parsed before their operator.
	depth, peak int
	// Token budget (see maxTokens): the file may lex budget tokens and
	// has lexed tokens.
	budget, tokens int
	// abandoned is set once either budget is spent and the rest of
	// the file abandoned.
	abandoned bool

	// stmts, cases and items are the stacks statements, switch groups
	// and enumerators are gathered on (see pushStmt).
	stmts []Stmt
	cases []SwitchCase
	items []EnumItem

	// Slabs for the most numerous nodes; they live as long as the
	// file (see package slab).
	idents    []Ident
	numIdents int
	numBodies int
	intLits   []IntLit
	binaries  []Binary
	assigns   []AssignExpr
	exprStmts []ExprStmt
	varDecls  []VarDecl
	declStmts []DeclStmt
	blocks    []Block
	ifs       []If
	fors      []For
	returns   []Return
}

// maxFileSize bounds a file's length: tokens locate their text by
// int32 offsets. A longer file is one parse error at 1:1.
const maxFileSize = math.MaxInt32

// checkFileSize reports a file of n bytes that is too long to lex.
func checkFileSize(path string, n int) *Error {
	if n > maxFileSize {
		return errf(path, Pos{Line: 1, Col: 1}, "file longer than %d bytes", maxFileSize)
	}
	return nil
}

// Parse parses one CMinor translation unit against a budget of its
// own.
func Parse(path, src string) (*File, []*Error) {
	var b TokenBudget
	return b.Parse(path, src)
}

// maxTokens bounds the tokens one analysis parses across all its
// files. Parse and check keep about 60 bytes per token live, so it
// bounds what one request can make the front end hold; at 1<<21 it is
// over 16 times the largest program of the paper corpus (114,005
// tokens).
const maxTokens = 1 << 21

// TokenBudget is what one analysis has spent of maxTokens. The zero
// value is a full budget.
type TokenBudget struct{ used int }

// Parse parses one file against the budget and charges its tokens. A
// file that would overspend is a parse error at its first token over
// budget, and is parsed no further.
func (b *TokenBudget) Parse(path, src string) (*File, []*Error) {
	f := &File{Path: path, src: src}
	if err := checkFileSize(path, len(src)); err != nil {
		return f, []*Error{err}
	}
	p := &Parser{lx: NewLexer(path, src), typedefs: make(map[string]bool), budget: maxTokens - b.used}
	p.lex(&p.tok)
	p.lex(&p.peek)
	for p.tok.Kind != EOF {
		before := p.tok
		f.Decls = p.parseTopDecl(f.Decls)
		if p.tok == before && p.tok.Kind != EOF {
			// No progress: skip the offending token to avoid loops.
			p.errorf(p.tok.Pos, "unexpected %s", p.lx.Describe(p.tok))
			p.next()
		}
	}
	p.errs = append(p.errs, p.lx.Errors()...)
	f.NumIdents, f.NumBodies, f.NumTokens, f.bodyTypeDefs = p.numIdents, p.numBodies, p.tokens, p.bodyTypeDefs
	b.used += p.tokens
	return f, p.errs
}

// Reuse charges the tokens of a file parsed earlier. It reports false,
// charging nothing, when the file does not fit; parsing it again then
// reports the token over budget.
func (b *TokenBudget) Reuse(f *File) bool {
	if b.used+f.NumTokens > maxTokens {
		return false
	}
	b.used += f.NumTokens
	return true
}

func (p *Parser) next() {
	p.tok = p.peek
	p.lex(&p.peek)
}

// lex scans the next token into t, or abandons the file at the first
// token over the token budget.
func (p *Parser) lex(t *Token) {
	p.lx.scan(t)
	if t.Kind == EOF || p.abandoned {
		return
	}
	if p.tokens == p.budget {
		pos := t.Pos
		p.errorf(pos, "more than %d tokens in one analysis", maxTokens)
		p.abandon(pos)
		return
	}
	p.tokens++
}

func (p *Parser) errorf(pos Pos, format string, args ...interface{}) {
	if len(p.errs) < 100 && !p.abandoned {
		p.errs = append(p.errs, errf(p.lx.file, pos, format, args...))
	}
}

// abandon gives up on the rest of the file after a budget error at
// pos. Only EOF follows: every parse loop ends at EOF and no parse
// function descends on it, so the recursion unwinds.
func (p *Parser) abandon(pos Pos) {
	p.abandoned = true
	p.lx.off = len(p.lx.src)
	p.tok = Token{Kind: EOF, Pos: pos}
	p.peek = p.tok
}

// maxNesting bounds how deeply a file's syntax nests. Every statement
// inside a function body counts one level, as does every parenthesis,
// prefix operator, cast, assignment, conditional, call, index, field
// access, binary operator (each link of a chain such as 1+1+1), struct
// or enum body, and declarator level (pointer, array, function).
// The checker and the lowerer recurse over the AST, and a goroutine
// stack overflow is fatal in Go, so deeper input is a parse error.
const maxNesting = 1000

// reach records that the construct being parsed extends level levels
// deep, and abandons the file when that exceeds maxNesting.
func (p *Parser) reach(pos Pos, level int) {
	if level > p.peak {
		p.peak = level
	}
	if level > maxNesting && !p.abandoned {
		p.errorf(pos, "nesting deeper than %d levels", maxNesting)
		p.abandon(pos)
	}
}

// enter descends one level for a construct starting at the current
// token; leave ascends again.
func (p *Parser) enter() {
	p.depth++
	p.reach(p.tok.Pos, p.depth)
}

func (p *Parser) leave() { p.depth-- }

// scope starts measuring peak from the current depth, for a parse
// function whose operator may arrive after its first operand. It
// returns the outer peak for endScope.
func (p *Parser) scope() int {
	outer := p.peak
	p.peak = p.depth
	return outer
}

// wrap pushes everything parsed since scope one level deeper: the
// operator at pos takes it as an operand.
func (p *Parser) wrap(pos Pos) { p.reach(pos, p.peak+1) }

func (p *Parser) endScope(outer int) { p.peak = max(outer, p.peak) }

func (p *Parser) expect(k Kind) Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, p.lx.Describe(t))
		return Token{Kind: k, Pos: t.Pos}
	}
	p.next()
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// isTypeStart reports whether t begins a type.
func (p *Parser) isTypeStart(t Token) bool {
	switch t.Kind {
	case KwInt, KwChar, KwLong, KwUnsigned, KwVoid, KwStruct, KwUnion, KwConst, KwEnum:
		return true
	case IDENT:
		return p.typedefs[p.lx.Text(t)]
	}
	return false
}

// --- Declarations ---

// parseTopDecl parses one file-scope declaration and appends what it
// declares to decls. A function definition that is all its
// declaration declares, and whose signature defines no type, records
// the offset of the declaration's first token: the definition can be
// cut out of the file whole without changing how the rest parses (see
// SameDecls).
func (p *Parser) parseTopDecl(decls []Decl) []Decl {
	first, off, typeDefs := len(decls), p.tok.Off, p.typeDefs
	decls = p.parseTopDeclaration(decls)
	if len(decls) == first+1 && p.typeDefs == typeDefs {
		if fd, ok := decls[first].(*FuncDecl); ok && fd.Body != nil {
			fd.declOff = off
		}
	}
	return decls
}

// parseTopDeclaration is parseTopDecl without the offset bookkeeping.
func (p *Parser) parseTopDeclaration(decls []Decl) []Decl {
	switch p.tok.Kind {
	case Semi:
		p.next()
		return decls
	case KwTypedef:
		return p.parseTypedef(decls)
	case KwStruct, KwUnion:
		// Either a struct declaration/definition or a declaration whose
		// base type is a struct. Distinguish by what follows the tag.
		if p.peek.Kind == IDENT {
			// struct NAME { ... } ; or struct NAME ; or struct NAME decl
			return p.parseStructOrDecl(decls)
		}
	}
	return p.parseDeclaration(declTop, decls)
}

func (p *Parser) parseTypedef(decls []Decl) []Decl {
	pos := p.expect(KwTypedef).Pos
	base := p.parseTypeSpecifier()
	// A typedef of a struct or enum definition also declares it.
	if sd, ok := pendingStruct(base); ok {
		decls = append(decls, sd)
	}
	if ed, ok := pendingEnum(base); ok {
		decls = append(decls, ed)
	}
	for {
		name, te := p.parseDeclarator(base)
		if name == "" {
			p.errorf(p.tok.Pos, "typedef requires a name")
			break
		}
		p.typedefs[name] = true
		decls = append(decls, &TypedefDecl{Pos: pos, Name: name, Type: te})
		if !p.accept(Comma) {
			break
		}
	}
	p.expect(Semi)
	return decls
}

// pendingStruct extracts a struct definition smuggled through a
// TypeExpr by parseTypeSpecifier (for "typedef struct {...} T;").
func pendingStruct(te TypeExpr) (*StructDecl, bool) {
	if s, ok := te.(*structDefTE); ok {
		return s.def, true
	}
	return nil, false
}

// structDefTE carries an inline struct definition; it behaves as a
// StructTE referencing the definition's tag.
type structDefTE struct {
	StructTE
	def    *StructDecl
	height int // nesting levels of the body, for maxNesting
}

// enumDefTE carries an inline enum definition.
type enumDefTE struct {
	EnumTE
	def    *EnumDecl
	height int
}

// pendingEnum extracts an enum definition smuggled through a TypeExpr.
func pendingEnum(te TypeExpr) (*EnumDecl, bool) {
	if e, ok := te.(*enumDefTE); ok {
		return e.def, true
	}
	return nil, false
}

func (p *Parser) parseStructOrDecl(decls []Decl) []Decl {
	kw := p.tok.Kind
	union := kw == KwUnion
	startPos := p.tok.Pos
	tag := p.lx.Text(p.peek)
	// Three cases after "struct NAME": "{" definition, ";" forward
	// declaration, else it is the base type of a declaration.
	p.next() // struct
	p.next() // NAME
	switch p.tok.Kind {
	case LBrace:
		sd := p.parseStructBody(startPos, tag, union)
		p.expect(Semi)
		return append(decls, sd)
	case Semi:
		p.next()
		return append(decls, &StructDecl{Pos: startPos, Name: tag, Union: union, Opaque: true})
	default:
		base := TypeExpr(&StructTE{Name: tag, Union: union})
		return p.parseDeclarationFrom(startPos, base, declTop, decls)
	}
}

func (p *Parser) parseStructBody(pos Pos, tag string, union bool) *StructDecl {
	p.enter()
	defer p.leave()
	p.expect(LBrace)
	sd := &StructDecl{Pos: pos, Name: tag, Union: union}
	p.bodyTypeDefs = p.bodyTypeDefs || p.inBody
	p.typeDefs++
	for p.tok.Kind != RBrace && p.tok.Kind != EOF {
		start := p.tok.Pos
		base := p.parseTypeSpecifier()
		for {
			name, te := p.parseDeclarator(base)
			if name == "" {
				p.errorf(p.tok.Pos, "struct field requires a name")
				break
			}
			sd.Fields = append(sd.Fields, FieldDecl{Pos: p.tok.Pos, Start: start, Name: name, Type: te})
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(Semi)
	}
	p.expect(RBrace)
	return sd
}

// parseEnumBody parses { A, B = 3, C }.
func (p *Parser) parseEnumBody(pos Pos, tag string) *EnumDecl {
	p.enter()
	defer p.leave()
	p.expect(LBrace)
	ed := &EnumDecl{Pos: pos, Name: tag}
	p.bodyTypeDefs = p.bodyTypeDefs || p.inBody
	p.typeDefs++
	mark := len(p.items)
	for p.tok.Kind != RBrace && p.tok.Kind != EOF {
		itemPos := p.tok.Pos
		name := p.lx.Text(p.expect(IDENT))
		var value Expr
		if p.accept(Assign) {
			value = p.parseCondExpr()
		}
		p.items = append(p.items, EnumItem{Pos: itemPos, Name: name, Value: value})
		if !p.accept(Comma) {
			break
		}
	}
	ed.Items = pop(&p.items, mark)
	p.expect(RBrace)
	return ed
}

// The built-in type names are shared: a TypeExpr is immutable once
// parsed, and no table keys on its identity.
var (
	nameInt      = &NameTE{Name: "int"}
	nameChar     = &NameTE{Name: "char"}
	nameLong     = &NameTE{Name: "long"}
	nameUnsigned = &NameTE{Name: "unsigned"}
	nameVoid     = &NameTE{Name: "void"}
)

// parseTypeSpecifier parses the leading type of a declaration:
// builtins, struct/union references or inline definitions, typedef
// names. Qualifiers (const) and storage hints handled by callers.
func (p *Parser) parseTypeSpecifier() TypeExpr {
	for p.tok.Kind == KwConst {
		p.next()
	}
	defer func() {
		for p.tok.Kind == KwConst {
			p.next()
		}
	}()
	switch p.tok.Kind {
	case KwInt:
		p.next()
		return nameInt
	case KwChar:
		p.next()
		return nameChar
	case KwLong:
		p.next()
		p.accept(KwLong) // long long
		p.accept(KwInt)  // long int
		return nameLong
	case KwUnsigned:
		p.next()
		// unsigned [int|char|long]
		switch p.tok.Kind {
		case KwChar:
			p.next()
			return nameChar
		case KwLong:
			p.next()
			return nameLong
		case KwInt:
			p.next()
		}
		return nameUnsigned
	case KwVoid:
		p.next()
		return nameVoid
	case KwStruct, KwUnion:
		union := p.tok.Kind == KwUnion
		pos := p.tok.Pos
		p.next()
		tag := ""
		if p.tok.Kind == IDENT {
			tag = p.lx.Text(p.tok)
			p.next()
		}
		if p.tok.Kind == LBrace {
			anon := tag == ""
			if anon {
				p.anonCount++
				tag = fmt.Sprintf("__anon%d", p.anonCount)
			}
			outer := p.scope()
			sd := p.parseStructBody(pos, tag, union)
			sd.Anon = anon
			h := p.peak - p.depth
			p.endScope(outer)
			return &structDefTE{StructTE: StructTE{Name: tag, Union: union}, def: sd, height: h}
		}
		if tag == "" {
			p.errorf(pos, "anonymous struct without body")
		}
		return &StructTE{Name: tag, Union: union}
	case KwEnum:
		pos := p.tok.Pos
		p.next()
		tag := ""
		if p.tok.Kind == IDENT {
			tag = p.lx.Text(p.tok)
			p.next()
		}
		if p.tok.Kind == LBrace {
			anon := tag == ""
			if anon {
				p.anonCount++
				tag = fmt.Sprintf("__anonenum%d", p.anonCount)
			}
			outer := p.scope()
			ed := p.parseEnumBody(pos, tag)
			ed.Anon = anon
			h := p.peak - p.depth
			p.endScope(outer)
			return &enumDefTE{EnumTE: EnumTE{Name: tag}, def: ed, height: h}
		}
		if tag == "" {
			p.errorf(pos, "anonymous enum without body")
		}
		return &EnumTE{Name: tag}
	case IDENT:
		if name := p.lx.Text(p.tok); p.typedefs[name] {
			p.next()
			return &NameTE{Name: name}
		}
	}
	p.errorf(p.tok.Pos, "expected type, found %s", p.lx.Describe(p.tok))
	p.next()
	return nameInt
}

// parseDeclarator parses pointer stars, the declared name (possibly a
// parenthesized function-pointer form), and array/function suffixes.
// It returns the name ("" for abstract declarators) and the full type.
func (p *Parser) parseDeclarator(base TypeExpr) (string, TypeExpr) {
	// Each pointer, array and function level nests the base one level
	// deeper; the levels entered here are released on return.
	defer p.setDepth(p.depth)
	t := base
	for p.tok.Kind == Star {
		p.enter()
		p.next()
		for p.tok.Kind == KwConst {
			p.next()
		}
		t = &PtrTE{Elem: t}
	}
	// Function pointer: ( * name ) ( params )
	if p.tok.Kind == LParen && p.peek.Kind == Star {
		p.enter()
		p.next() // (
		p.next() // *
		name := ""
		if p.tok.Kind == IDENT {
			name = p.lx.Text(p.tok)
			p.next()
		}
		p.expect(RParen)
		params, variadic := p.parseParamTypes()
		p.reachBase(base)
		return name, &PtrTE{Elem: &FuncTE{Ret: t, Params: params, Variadic: variadic}}
	}
	name := ""
	if p.tok.Kind == IDENT {
		name = p.lx.Text(p.tok)
		p.next()
	}
	// Array suffixes.
	for p.tok.Kind == LBrack {
		p.enter()
		p.next()
		n := int64(1)
		if p.tok.Kind == INTLIT {
			n = p.tok.Val
			p.next()
		}
		p.expect(RBrack)
		t = &ArrayTE{Elem: t, N: n}
	}
	// Function suffix (prototype or definition head).
	if p.tok.Kind == LParen {
		params, variadic := p.parseParamTypes()
		t = &FuncTE{Ret: t, Params: params, Variadic: variadic}
	}
	p.reachBase(base)
	return name, t
}

func (p *Parser) setDepth(d int) { p.depth = d }

// reachBase charges an inline struct or enum body in a declarator's
// base at the declarator's full depth: the body nests inside every
// pointer, array and function level of the declarator.
func (p *Parser) reachBase(base TypeExpr) {
	switch b := base.(type) {
	case *structDefTE:
		p.reach(p.tok.Pos, p.depth+b.height)
	case *enumDefTE:
		p.reach(p.tok.Pos, p.depth+b.height)
	}
}

// parseParamTypes parses a parenthesized parameter list. It records
// the parameter names of the OUTERMOST list parsed in p.lastParams
// (assigned on return, so nested function-pointer parameter lists do
// not clobber an in-progress outer list).
func (p *Parser) parseParamTypes() ([]TypeExpr, bool) {
	p.enter()
	defer p.leave()
	p.expect(LParen)
	var types []TypeExpr
	var names []string
	variadic := false
	switch {
	case p.tok.Kind == RParen:
		p.next()
	case p.tok.Kind == KwVoid && p.peek.Kind == RParen:
		p.next()
		p.next()
	default:
		for {
			if p.tok.Kind == Ellipsis {
				p.next()
				variadic = true
				break
			}
			base := p.parseTypeSpecifier()
			name, te := p.parseDeclarator(base)
			types = append(types, te)
			names = append(names, name)
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(RParen)
	}
	p.lastParams = names
	return types, variadic
}

// declMode says where a declaration is, and so what it may hold.
type declMode uint8

const (
	declTop   declMode = iota // file scope: function bodies allowed
	declFor                   // a for-loop initializer
	declBlock                 // a block: variables become DeclStmts
)

// parseDeclaration parses a declaration starting at the current token
// (storage specifiers, base type, declarators) and appends what it
// declares to decls. In a block, each variable is pushed as a
// DeclStmt instead (see pushStmt), and decls collects only what a
// block cannot hold.
func (p *Parser) parseDeclaration(mode declMode, decls []Decl) []Decl {
	pos := p.tok.Pos
	extern := false
	for p.tok.Kind == KwExtern || p.tok.Kind == KwStatic {
		extern = extern || p.tok.Kind == KwExtern
		p.next()
	}
	first := len(decls)
	base := p.parseTypeSpecifier()
	if sd, ok := pendingStruct(base); ok {
		decls = append(decls, sd)
		if p.tok.Kind == Semi {
			p.next()
			return decls
		}
	}
	if ed, ok := pendingEnum(base); ok {
		decls = append(decls, ed)
		if p.tok.Kind == Semi {
			p.next()
			return decls
		}
	}
	decls = p.parseDeclarationFrom(pos, base, mode, decls)
	if extern {
		for _, d := range decls[first:] {
			if fd, ok := d.(*FuncDecl); ok {
				fd.Extern = true
			}
		}
	}
	return decls
}

// parseDeclarationFrom continues a declaration whose base type is
// already parsed (see parseDeclaration).
func (p *Parser) parseDeclarationFrom(pos Pos, base TypeExpr, mode declMode, decls []Decl) []Decl {
	for {
		name, te := p.parseDeclarator(base)
		if fn, ok := te.(*FuncTE); ok && name != "" {
			params := make([]Param, len(fn.Params))
			for i := range fn.Params {
				pname := ""
				if i < len(p.lastParams) {
					pname = p.lastParams[i]
				}
				params[i] = Param{Name: pname, Type: fn.Params[i], Pos: pos}
			}
			fd := &FuncDecl{Pos: pos, Name: name, Ret: fn.Ret, Params: params, Variadic: fn.Variadic}
			if p.tok.Kind == LBrace {
				if mode != declTop {
					p.errorf(p.tok.Pos, "nested function definition")
				}
				fd.Index, fd.declOff, fd.bodyOff = p.numBodies, -1, p.tok.Off
				p.numBodies++
				p.inBody = true
				fd.Body = p.parseBlock()
				p.inBody = mode != declTop
				fd.bodyEnd = p.tok.Off
				return append(decls, fd)
			}
			fd.Extern = true // prototype without body
			decls = append(decls, fd)
		} else {
			if name == "" {
				p.errorf(p.tok.Pos, "declaration requires a name")
			}
			vd := slab.New(&p.varDecls)
			*vd = VarDecl{Pos: pos, Name: name, Type: te}
			if p.accept(Assign) {
				p.inBody = true
				vd.Init = p.parseAssignExpr()
				p.inBody = mode != declTop
			}
			if mode == declBlock {
				p.pushStmt(p.declStmt(vd))
			} else {
				decls = append(decls, vd)
			}
		}
		if !p.accept(Comma) {
			break
		}
	}
	p.expect(Semi)
	return decls
}

// --- Statements ---

// pushStmt pushes a parsed statement on the statement stack. Each
// statement list being parsed (a block's, a case body's, a single
// statement's) is the part of the stack above the height its parser
// started at, and is taken off by pop once complete, so no list grows
// by reallocation and a single statement takes no list at all. A
// switch's groups and an enum's items are gathered the same way.
func (p *Parser) pushStmt(s Stmt) { p.stmts = append(p.stmts, s) }

// pop takes the values above height mark off a parser stack, into a
// list of their own.
func pop[T any](stack *[]T, mark int) []T {
	list := append([]T(nil), (*stack)[mark:]...)
	clear((*stack)[mark:])
	*stack = (*stack)[:mark]
	return list
}

func (p *Parser) parseBlock() *Block {
	b := slab.New(&p.blocks)
	b.Pos = p.tok.Pos
	p.expect(LBrace)
	mark := len(p.stmts)
	for p.tok.Kind != RBrace && p.tok.Kind != EOF {
		before := p.tok
		p.parseStmt()
		if p.tok == before {
			p.errorf(p.tok.Pos, "unexpected %s in block", p.lx.Describe(p.tok))
			p.next()
		}
	}
	b.Stmts = pop(&p.stmts, mark)
	p.expect(RBrace)
	return b
}

// parseStmt parses one statement and pushes it (see pushStmt). A
// local declaration pushes a DeclStmt for each variable it declares,
// or nothing.
func (p *Parser) parseStmt() {
	p.enter()
	defer p.leave()
	var s Stmt
	switch p.tok.Kind {
	case LBrace:
		s = p.parseBlock()
	case Semi:
		pos := p.tok.Pos
		p.next()
		s = &Empty{Pos: pos}
	case KwIf:
		is := slab.New(&p.ifs)
		is.Pos = p.tok.Pos
		p.next()
		p.expect(LParen)
		is.Cond = p.parseExpr()
		p.expect(RParen)
		is.Then = p.parseSingleStmt()
		if p.accept(KwElse) {
			is.Else = p.parseSingleStmt()
		}
		s = is
	case KwWhile:
		pos := p.tok.Pos
		p.next()
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		body := p.parseSingleStmt()
		s = &While{Pos: pos, Cond: cond, Body: body}
	case KwDo:
		pos := p.tok.Pos
		p.next()
		body := p.parseSingleStmt()
		p.expect(KwWhile)
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		p.expect(Semi)
		s = &While{Pos: pos, Cond: cond, Body: body, DoWhile: true}
	case KwFor:
		fs := slab.New(&p.fors)
		fs.Pos = p.tok.Pos
		p.next()
		p.expect(LParen)
		if p.tok.Kind != Semi {
			if p.isTypeStart(p.tok) {
				ds := p.parseDeclaration(declFor, nil)
				if len(ds) > 0 {
					if vd, ok := ds[0].(*VarDecl); ok {
						fs.Init = p.declStmt(vd)
					}
				}
			} else {
				fs.Init = p.exprStmt(p.parseExpr())
				p.expect(Semi)
			}
		} else {
			p.next()
		}
		if p.tok.Kind != Semi {
			fs.Cond = p.parseExpr()
		}
		p.expect(Semi)
		if p.tok.Kind != RParen {
			fs.Post = p.parseExpr()
		}
		p.expect(RParen)
		fs.Body = p.parseSingleStmt()
		s = fs
	case KwSwitch:
		s = p.parseSwitch()
	case KwReturn:
		rs := slab.New(&p.returns)
		rs.Pos = p.tok.Pos
		p.next()
		if p.tok.Kind != Semi {
			rs.X = p.parseExpr()
		}
		p.expect(Semi)
		s = rs
	case KwBreak:
		pos := p.tok.Pos
		p.next()
		p.expect(Semi)
		s = &Break{Pos: pos}
	case KwContinue:
		pos := p.tok.Pos
		p.next()
		p.expect(Semi)
		s = &Continue{Pos: pos}
	default:
		if p.isTypeStart(p.tok) && !(p.tok.Kind == IDENT && p.peek.Kind != IDENT && p.peek.Kind != Star) {
			// A local declaration. The guard above keeps expressions
			// that merely start with a typedef-registered identifier
			// (rare) from being misparsed; "T x" and "T *x" are
			// declarations.
			for _, d := range p.parseDeclaration(declBlock, nil) {
				p.errorf(d.declPos(), "unsupported declaration in block")
			}
			return
		}
		s = p.exprStmt(p.parseExpr())
		p.expect(Semi)
	}
	p.pushStmt(s)
}

// parseSwitch parses a switch statement. A case label directly after
// another joins its group; the statements after a group's labels are
// its body. The groups are gathered on the case stack, where a nested
// switch's go above them and are taken off before it returns.
func (p *Parser) parseSwitch() *Switch {
	pos := p.tok.Pos
	p.next()
	p.expect(LParen)
	cond := p.parseExpr()
	p.expect(RParen)
	p.expect(LBrace)
	sw := &Switch{Pos: pos, Cond: cond}
	// cur indexes the current group on the case stack, or is -1; a
	// pointer would not survive the stack's growth.
	cur := -1
	caseMark, mark := len(p.cases), len(p.stmts)
	// startCase ends the current group's body and starts a new group.
	startCase := func(c SwitchCase) {
		if cur >= 0 {
			p.cases[cur].Body = pop(&p.stmts, mark)
		}
		cur = len(p.cases)
		p.cases = append(p.cases, c)
	}
	for p.tok.Kind != RBrace && p.tok.Kind != EOF {
		switch p.tok.Kind {
		case KwCase:
			cpos := p.tok.Pos
			p.next()
			v := p.parseCondExpr()
			p.expect(Colon)
			if cur < 0 || len(p.stmts) > mark || p.cases[cur].Default {
				startCase(SwitchCase{Pos: cpos})
			}
			p.cases[cur].Values = append(p.cases[cur].Values, v)
		case KwDefault:
			cpos := p.tok.Pos
			p.next()
			p.expect(Colon)
			startCase(SwitchCase{Pos: cpos, Default: true})
		default:
			if cur < 0 {
				p.errorf(p.tok.Pos, "statement before first case label")
				startCase(SwitchCase{Pos: p.tok.Pos, Default: true})
			}
			before := p.tok
			p.parseStmt()
			if p.tok == before {
				p.errorf(p.tok.Pos, "unexpected %s in switch", p.lx.Describe(p.tok))
				p.next()
			}
		}
	}
	if cur >= 0 {
		p.cases[cur].Body = pop(&p.stmts, mark)
	}
	sw.Cases = pop(&p.cases, caseMark)
	p.expect(RBrace)
	return sw
}

func (p *Parser) declStmt(vd *VarDecl) *DeclStmt {
	s := slab.New(&p.declStmts)
	s.Decl = vd
	return s
}

func (p *Parser) exprStmt(x Expr) *ExprStmt {
	s := slab.New(&p.exprStmts)
	*s = ExprStmt{Pos: x.exprPos(), X: x}
	return s
}

// parseSingleStmt parses the statement of an if, loop or do: one
// statement, or a block of what a lone declaration declared.
func (p *Parser) parseSingleStmt() Stmt {
	mark := len(p.stmts)
	p.parseStmt()
	if len(p.stmts) == mark+1 {
		s := p.stmts[mark]
		p.stmts[mark] = nil
		p.stmts = p.stmts[:mark]
		return s
	}
	return &Block{Pos: p.tok.Pos, Stmts: pop(&p.stmts, mark)}
}

// --- Expressions ---

func (p *Parser) parseExpr() Expr { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() Expr {
	outer := p.scope()
	x := p.parseCondExpr()
	switch p.tok.Kind {
	case Assign, PlusAssign, MinusAssign:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.wrap(pos)
		p.enter()
		p.next()
		rhs := p.parseAssignExpr()
		p.leave()
		a := slab.New(&p.assigns)
		*a = AssignExpr{Pos: pos, Op: op, LHS: x, RHS: rhs}
		x = a
	}
	p.endScope(outer)
	return x
}

func (p *Parser) parseCondExpr() Expr {
	outer := p.scope()
	x := p.parseBinaryExpr(0)
	if p.tok.Kind == Question {
		pos := p.tok.Pos
		p.wrap(pos)
		p.enter()
		p.next()
		t := p.parseAssignExpr()
		p.expect(Colon)
		f := p.parseCondExpr()
		p.leave()
		x = &CondExpr{Pos: pos, Cond: x, Then: t, Else: f}
	}
	p.endScope(outer)
	return x
}

// binary operator precedence, higher binds tighter.
func binPrec(k Kind) int {
	switch k {
	case OrOr:
		return 1
	case AndAnd:
		return 2
	case Pipe:
		return 3
	case Caret:
		return 4
	case Amp:
		return 5
	case Eq, Neq:
		return 6
	case Lt, Gt, Le, Ge:
		return 7
	case Plus, Minus:
		return 9
	case Star, Slash, Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) Expr {
	outer := p.scope()
	lhs := p.parseUnary()
	for {
		prec := binPrec(p.tok.Kind)
		if prec == 0 || prec < minPrec {
			p.endScope(outer)
			return lhs
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		// Left-associative: the chain so far becomes the left operand.
		p.wrap(pos)
		p.enter()
		p.next()
		rhs := p.parseBinaryExpr(prec + 1)
		p.leave()
		b := slab.New(&p.binaries)
		*b = Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
		lhs = b
	}
}

func (p *Parser) parseUnary() Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case Not, Minus, Tilde, Star, Amp, Plus, Inc, Dec:
		op := p.tok.Kind
		p.enter()
		p.next()
		x := p.parseUnary()
		p.leave()
		if op == Plus {
			return x
		}
		return &Unary{Pos: pos, Op: op, X: x}
	case KwSizeof:
		p.enter()
		defer p.leave()
		p.next()
		if p.tok.Kind == LParen && p.isTypeStart(p.peek) {
			p.next()
			base := p.parseTypeSpecifier()
			_, te := p.parseDeclarator(base)
			p.expect(RParen)
			return &SizeofType{Pos: pos, Type: te}
		}
		x := p.parseUnary()
		return &SizeofExpr{Pos: pos, X: x}
	case LParen:
		if p.isTypeStart(p.peek) {
			p.enter()
			defer p.leave()
			p.next()
			base := p.parseTypeSpecifier()
			_, te := p.parseDeclarator(base)
			p.expect(RParen)
			x := p.parseUnary()
			return &Cast{Pos: pos, Type: te, X: x}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	outer := p.scope()
	x := p.parsePrimary()
	for {
		pos, kind := p.tok.Pos, p.tok.Kind
		switch kind {
		case LParen, LBrack, Dot, Arrow, Inc, Dec:
		default:
			p.endScope(outer)
			return x
		}
		// Each postfix operator takes the expression so far as its
		// operand.
		p.wrap(pos)
		switch kind {
		case LParen:
			p.enter()
			p.next()
			var args []Expr
			for p.tok.Kind != RParen && p.tok.Kind != EOF {
				args = append(args, p.parseAssignExpr())
				if !p.accept(Comma) {
					break
				}
			}
			p.expect(RParen)
			p.leave()
			x = &Call{Pos: pos, Fun: x, Args: args}
		case LBrack:
			p.enter()
			p.next()
			i := p.parseExpr()
			p.expect(RBrack)
			p.leave()
			x = &Index{Pos: pos, X: x, I: i}
		case Dot, Arrow:
			p.next()
			name := p.lx.Text(p.expect(IDENT))
			x = &FieldAccess{Pos: pos, X: x, Name: name, Arrow: kind == Arrow}
		case Inc, Dec:
			p.next()
			x = &Postfix{Pos: pos, Op: kind, X: x}
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case IDENT:
		id := slab.New(&p.idents)
		*id = Ident{Pos: pos, ID: int32(p.numIdents), off: p.tok.Off}
		p.numIdents++
		p.next()
		return id
	case INTLIT, CHARLIT:
		v := p.tok.Val
		p.next()
		return p.intLit(pos, v)
	case STRLIT:
		s := p.lx.Text(p.tok)
		p.next()
		// Adjacent string literals concatenate.
		for p.tok.Kind == STRLIT {
			s += p.lx.Text(p.tok)
			p.next()
		}
		return &StrLit{Pos: pos, V: s}
	case KwNull:
		p.next()
		return &Null{Pos: pos}
	case LParen:
		p.enter()
		p.next()
		x := p.parseExpr()
		p.expect(RParen)
		p.leave()
		return x
	}
	p.errorf(pos, "expected expression, found %s", p.lx.Describe(p.tok))
	p.next()
	return p.intLit(pos, 0)
}

func (p *Parser) intLit(pos Pos, v int64) *IntLit {
	lit := slab.New(&p.intLits)
	*lit = IntLit{Pos: pos, V: v}
	return lit
}
