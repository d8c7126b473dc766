package cminor

import (
	"fmt"
	"strings"
)

// Type is a resolved semantic type. Sizes follow a conventional LP64
// layout (char=1, int=4, long=8, pointer=8) with natural alignment —
// the "machine-dependent offsets" of the paper's Section 5.1.
type Type interface {
	Size() int64
	Align() int64
	String() string
}

// IntType is an integer type of the given byte width.
type IntType struct {
	Width    int64
	Unsigned bool
	Name     string // spelling: "int", "char", "long", ...
}

func (t *IntType) Size() int64  { return t.Width }
func (t *IntType) Align() int64 { return t.Width }
func (t *IntType) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("int%d", t.Width*8)
}

// VoidType is void.
type VoidType struct{}

func (*VoidType) Size() int64    { return 0 }
func (*VoidType) Align() int64   { return 1 }
func (*VoidType) String() string { return "void" }

// PtrType is a pointer.
type PtrType struct{ Elem Type }

func (*PtrType) Size() int64      { return 8 }
func (*PtrType) Align() int64     { return 8 }
func (t *PtrType) String() string { return t.Elem.String() + "*" }

// ArrayType is a fixed-size array.
type ArrayType struct {
	Elem Type
	N    int64
}

func (t *ArrayType) Size() int64    { return t.Elem.Size() * t.N }
func (t *ArrayType) Align() int64   { return t.Elem.Align() }
func (t *ArrayType) String() string { return fmt.Sprintf("%s[%d]", t.Elem, t.N) }

// Field is one laid-out member of a struct type.
type Field struct {
	Name   string
	Type   Type
	Offset int64
}

// StructType is a struct or union with computed layout. Opaque structs
// (forward-declared, body never seen) have no fields and size 0; they
// are only legal behind pointers.
type StructType struct {
	Name   string
	Union  bool
	Opaque bool
	Fields []Field

	size, align int64
}

func (t *StructType) Size() int64  { return t.size }
func (t *StructType) Align() int64 { return t.align }
func (t *StructType) String() string {
	kw := "struct"
	if t.Union {
		kw = "union"
	}
	return kw + " " + t.Name
}

// FieldByName returns the field with the given name, or nil.
func (t *StructType) FieldByName(name string) *Field {
	for i := range t.Fields {
		if t.Fields[i].Name == name {
			return &t.Fields[i]
		}
	}
	return nil
}

// FuncType is a function signature.
type FuncType struct {
	Ret      Type
	Params   []Type
	Variadic bool
}

func (*FuncType) Size() int64  { return 8 } // as a value, decays to pointer
func (*FuncType) Align() int64 { return 8 }
func (t *FuncType) String() string {
	var sb strings.Builder
	sb.WriteString(t.Ret.String())
	sb.WriteString(" (")
	for i, p := range t.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	if t.Variadic {
		if len(t.Params) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("...")
	}
	sb.WriteString(")")
	return sb.String()
}

// Shared builtin instances.
var (
	TypeVoid = &VoidType{}
	TypeChar = &IntType{Width: 1, Name: "char"}
	TypeInt  = &IntType{Width: 4, Name: "int"}
	TypeLong = &IntType{Width: 8, Name: "long"}
	TypeUInt = &IntType{Width: 4, Unsigned: true, Name: "unsigned"}
	// TypeVoidPtr is the generic pointer type used for NULL, string
	// literals' decay target in weakly-typed positions, and unsafe
	// casts.
	TypeVoidPtr = &PtrType{Elem: TypeVoid}
)

// IsPointer reports whether t is a pointer (or array, which decays).
func IsPointer(t Type) bool {
	switch t.(type) {
	case *PtrType, *ArrayType:
		return true
	}
	return false
}

// PointerElem returns the pointee of a pointer or array type, or nil.
func PointerElem(t Type) Type {
	switch t := t.(type) {
	case *PtrType:
		return t.Elem
	case *ArrayType:
		return t.Elem
	}
	return nil
}

// Deref unwraps one pointer level; arrays decay.
func Deref(t Type) (Type, bool) {
	e := PointerElem(t)
	if e == nil {
		return nil, false
	}
	return e, true
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// layOut computes offsets, size, and alignment for a struct body.
func (t *StructType) layOut() {
	t.size, t.align = 0, 1
	for i := range t.Fields {
		f := &t.Fields[i]
		a := f.Type.Align()
		if a > t.align {
			t.align = a
		}
		if t.Union {
			f.Offset = 0
			if s := f.Type.Size(); s > t.size {
				t.size = s
			}
		} else {
			t.size = alignUp(t.size, a)
			f.Offset = t.size
			t.size += f.Type.Size()
		}
	}
	t.size = alignUp(t.size, t.align)
	if t.size == 0 && !t.Opaque {
		t.size = 1 // empty structs occupy one byte, as in practice
	}
}
