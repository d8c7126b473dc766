// Package cminor implements the front-end for CMinor, the C subset
// RegionWiz analyzes. It substitutes for the Phoenix compiler framework
// the paper used (Section 5.1): a lexer, parser, and type checker whose
// output feeds the IR lowering in package ir.
//
// The subset covers everything the paper's region idioms need: structs
// and unions, enums, pointers and pointers-to-pointers, function
// pointers, casts (including int<->pointer), address-of, string
// literals, arrays, typedefs, and the usual statement forms including
// switch with C fallthrough. It deliberately omits what RegionWiz's
// analysis is documented as unsound for anyway (Section 5.5): varargs
// access, bitfields, goto, and non-constant pointer arithmetic are all
// rejected or treated conservatively downstream.
package cminor

import "fmt"

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	CHARLIT
	STRLIT

	// Keywords.
	KwInt
	KwChar
	KwLong
	KwUnsigned
	KwVoid
	KwStruct
	KwUnion
	KwTypedef
	KwIf
	KwElse
	KwWhile
	KwFor
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
	KwExtern
	KwStatic
	KwConst
	KwNull // NULL
	KwEnum
	KwSwitch
	KwCase
	KwDefault

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBrack
	RBrack
	Semi
	Comma
	Dot
	Arrow
	Star
	Plus
	Minus
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Not
	Assign
	PlusAssign
	MinusAssign
	Eq
	Neq
	Lt
	Gt
	Le
	Ge
	AndAnd
	OrOr
	Question
	Colon
	Inc
	Dec
	Ellipsis
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer", CHARLIT: "char", STRLIT: "string",
	KwInt: "int", KwChar: "char", KwLong: "long", KwUnsigned: "unsigned", KwVoid: "void",
	KwStruct: "struct", KwUnion: "union", KwTypedef: "typedef",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for", KwDo: "do",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwSizeof: "sizeof", KwExtern: "extern", KwStatic: "static", KwConst: "const", KwNull: "NULL",
	KwEnum: "enum", KwSwitch: "switch", KwCase: "case", KwDefault: "default",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBrack: "[", RBrack: "]",
	Semi: ";", Comma: ",", Dot: ".", Arrow: "->",
	Star: "*", Plus: "+", Minus: "-", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=",
	Eq: "==", Neq: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	AndAnd: "&&", OrOr: "||", Question: "?", Colon: ":",
	Inc: "++", Dec: "--", Ellipsis: "...",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keyword returns the keyword kind spelled s, or IDENT when s is not
// a keyword. It switches on length and then on bytes, so no lookup
// hashes the identifier.
func keyword(s string) Kind {
	switch len(s) {
	case 2:
		switch s {
		case "if":
			return KwIf
		case "do":
			return KwDo
		}
	case 3:
		switch s {
		case "int":
			return KwInt
		case "for":
			return KwFor
		}
	case 4:
		switch s[0] {
		case 'c':
			switch s {
			case "char":
				return KwChar
			case "case":
				return KwCase
			}
		case 'e':
			switch s {
			case "else":
				return KwElse
			case "enum":
				return KwEnum
			}
		case 'l':
			if s == "long" {
				return KwLong
			}
		case 'v':
			if s == "void" {
				return KwVoid
			}
		case 'N':
			if s == "NULL" {
				return KwNull
			}
		}
	case 5:
		switch s {
		case "union":
			return KwUnion
		case "while":
			return KwWhile
		case "break":
			return KwBreak
		case "const":
			return KwConst
		}
	case 6:
		switch s {
		case "struct":
			return KwStruct
		case "return":
			return KwReturn
		case "sizeof":
			return KwSizeof
		case "extern":
			return KwExtern
		case "static":
			return KwStatic
		case "switch":
			return KwSwitch
		}
	case 7:
		switch s {
		case "typedef":
			return KwTypedef
		case "default":
			return KwDefault
		}
	case 8:
		switch s {
		case "unsigned":
			return KwUnsigned
		case "continue":
			return KwContinue
		}
	}
	return IDENT
}

// Pos is a source position within a file: 1-based line and byte
// column. It names no file and holds no pointer, so AST nodes and
// tokens carry it for 8 bytes and the collector never scans it; the
// file comes from the enclosing File (or Fragment, or Error). A
// position that leaves its file travels as a FilePos.
type Pos struct {
	Line, Col int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position carries real location info.
func (p Pos) IsValid() bool { return p.Line > 0 }

// FilePos is a position together with the file it is in: the form a
// position takes in diagnostics, IR instructions, and anything else
// read away from its File.
type FilePos struct {
	File string
	Pos
}

func (p FilePos) String() string {
	if p.File == "" {
		return p.Pos.String()
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexical token. It holds no pointer: an identifier's or
// number's text is the source span [Off, End), read through the Lexer
// that produced it (Lexer.Text). Val is an integer or char literal's
// value, or a string literal's index in the lexer's table of unescaped
// strings.
type Token struct {
	Kind     Kind
	Pos      Pos
	Off, End int32
	Val      int64
}

// Error is a front-end diagnostic with a source position.
type Error struct {
	Pos FilePos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(file string, pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: FilePos{File: file, Pos: pos}, Msg: fmt.Sprintf(format, args...)}
}
