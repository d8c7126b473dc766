package interp

import (
	"fmt"
	"sort"

	"repro/internal/cminor"
)

// regionDepth counts ancestors (used to order teardown).
func regionDepth(r *Region) int {
	d := 0
	for x := r.Parent; x != nil; x = x.Parent {
		d++
	}
	return d
}

// call invokes a function by name with evaluated arguments. Undefined
// functions dispatch to the extern models (the region APIs, malloc,
// and a default no-op).
func (m *Machine) call(name string, args []Value, pos cminor.FilePos) (Value, error) {
	if err := m.burn(); err != nil {
		return Value{}, err
	}
	// The depth budget covers every re-entry path into the Go call
	// stack: direct CMinor recursion and cleanup callbacks invoked
	// (recursively, via extern → killRegion) during region teardown.
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > m.opts.MaxDepth {
		return Value{}, &BudgetError{Resource: "call-depth", Limit: m.opts.MaxDepth}
	}
	fo := m.info.Funcs[name]
	if fo == nil || fo.Decl == nil || fo.Decl.Body == nil {
		return m.extern(name, args, pos)
	}
	fr := &frame{fn: fo.Decl, locals: make(map[string]*Cell)}
	for i, p := range fo.Decl.Params {
		pname := p.Name
		if pname == "" {
			pname = fmt.Sprintf("__arg%d", i)
		}
		c := &Cell{}
		if i < len(args) {
			c.Val = args[i]
		}
		fr.locals[pname] = c
	}
	outer := m.file
	m.file = m.fileOf[fo.Decl]
	err := m.execBlock(fr, fo.Decl.Body)
	m.file = outer
	if err != nil {
		return Value{}, err
	}
	return fr.ret, nil
}

// extern models the runtime functions the analysis knows about.
func (m *Machine) extern(name string, args []Value, pos cminor.FilePos) (Value, error) {
	regionArg := func(i int) *Region {
		if i < len(args) && args[i].Kind == RegionVal {
			return args[i].Region
		}
		return nil
	}
	switch name {
	case "rnew", "newsubregion":
		r, err := m.newRegion(regionArg(0), pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: RegionVal, Region: r}, nil
	case "newregion":
		r, err := m.newRegion(nil, pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: RegionVal, Region: r}, nil
	case "ralloc", "rstralloc", "rstrdup", "rarrayalloc":
		o, err := m.newObject(regionArg(0), pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: PtrVal, Ptr: o.Field(0)}, nil
	case "apr_pool_create", "apr_pool_create_ex":
		r, err := m.newRegion(regionArg(1), pos)
		if err != nil {
			return Value{}, err
		}
		if len(args) > 0 && args[0].Kind == PtrVal && args[0].Ptr != nil {
			m.storeCell(args[0].Ptr, Value{Kind: RegionVal, Region: r})
		}
		return Value{Kind: IntVal, Int: 0}, nil
	case "svn_pool_create":
		r, err := m.newRegion(regionArg(0), pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: RegionVal, Region: r}, nil
	case "apr_palloc", "apr_pcalloc", "apr_pstrdup", "apr_pstrndup",
		"apr_psprintf", "apr_pmemdup", "apr_hash_make", "apr_array_make":
		r := regionArg(0)
		o, err := m.newObject(r, pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: PtrVal, Ptr: o.Field(0)}, nil
	case "apr_pool_cleanup_register":
		// (pool, data, plain_cleanup, child_cleanup): remember the
		// plain cleanup; it runs at clear/destroy.
		if r := regionArg(0); r != nil && len(args) > 2 && args[2].Kind == FnVal {
			var data Value
			if len(args) > 1 {
				data = args[1]
			}
			m.cleanups[r] = append(m.cleanups[r], cleanupEntry{fn: args[2].Fn, data: data})
		}
		return Value{Kind: IntVal, Int: 0}, nil
	case "apr_pool_destroy", "svn_pool_destroy", "deleteregion":
		if r := regionArg(0); r != nil {
			if err := m.killRegion(r, true); err != nil {
				return Value{}, err
			}
		}
		return Value{Kind: IntVal, Int: 0}, nil
	case "apr_pool_clear", "svn_pool_clear":
		// Clearing runs cleanups and destroys children but keeps the
		// pool itself usable.
		if r := regionArg(0); r != nil {
			if err := m.killRegion(r, false); err != nil {
				return Value{}, err
			}
		}
		return Value{Kind: IntVal, Int: 0}, nil
	case "malloc", "calloc", "realloc", "strdup":
		o, err := m.newObject(nil, pos)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: PtrVal, Ptr: o.Field(0)}, nil
	}
	// Unknown extern: no effect, returns 0.
	return Value{Kind: IntVal, Int: 0}, nil
}

// killRegion tears down a region's subtree, running registered
// cleanups children-first, each in reverse registration order — APR's
// teardown order. destroySelf distinguishes apr_pool_destroy (the
// region dies) from apr_pool_clear (the region stays usable).
func (m *Machine) killRegion(r *Region, destroySelf bool) error {
	var doomed []*Region
	for _, sub := range m.effects.Regions {
		if !sub.Alive || sub == r {
			continue
		}
		for x := sub.Parent; x != nil; x = x.Parent {
			if x == r {
				doomed = append(doomed, sub)
				break
			}
		}
	}
	// Children first: deeper regions tear down before their ancestors;
	// the deleted region itself goes last.
	sort.SliceStable(doomed, func(i, j int) bool {
		return regionDepth(doomed[i]) > regionDepth(doomed[j])
	})
	doomed = append(doomed, r)
	// Cleanups run while the memory is still alive (APR frees after);
	// only then does the subtree die.
	for _, d := range doomed {
		entries := m.cleanups[d]
		delete(m.cleanups, d)
		for i := len(entries) - 1; i >= 0; i-- {
			if _, err := m.call(entries[i].fn, []Value{entries[i].data}, cminor.FilePos{}); err != nil {
				return err
			}
		}
	}
	doomedSet := make(map[*Region]bool, len(doomed))
	for _, d := range doomed {
		doomedSet[d] = true
		if d == r && !destroySelf {
			continue
		}
		d.Alive = false
	}
	// All allocations in the subtree are reclaimed either way.
	for _, o := range m.effects.Objects {
		if o.Owner != nil && doomedSet[o.Owner] {
			o.Freed = true
		}
	}
	return nil
}

// noteUse records a use-after-delete event when the cell lives in an
// object whose owner region has been destroyed.
func (m *Machine) noteUse(c *Cell, pos cminor.FilePos) *Cell {
	if c != nil && c.Obj != nil && (c.Obj.Freed ||
		(c.Obj.Owner != nil && !c.Obj.Owner.Alive)) {
		m.effects.Dangling = append(m.effects.Dangling, DanglingUse{Pos: pos, Obj: c.Obj})
	}
	return c
}

// storeCell writes a value into a cell, recording σ tuples for stores
// of pointers/regions into region-allocated objects — the judgment
// (4.6) of Figure 4.
func (m *Machine) storeCell(c *Cell, v Value) {
	c.Val = v
	if c.Obj == nil {
		return
	}
	edge := AccessEdge{Src: c.Obj, Off: c.Off}
	switch v.Kind {
	case PtrVal:
		if v.Ptr == nil || v.Ptr.Obj == nil {
			return
		}
		edge.DstObj = v.Ptr.Obj
	case RegionVal:
		edge.DstReg = v.Region
	default:
		return
	}
	m.effects.Access = append(m.effects.Access, edge)
}

// --- statements ---

func (m *Machine) execBlock(fr *frame, b *cminor.Block) error {
	for _, s := range b.Stmts {
		if err := m.exec(fr, s); err != nil {
			return err
		}
		if fr.done || fr.brk || fr.cont {
			return nil
		}
	}
	return nil
}

func (m *Machine) exec(fr *frame, s cminor.Stmt) error {
	if err := m.burn(); err != nil {
		return err
	}
	switch s := s.(type) {
	case *cminor.Block:
		return m.execBlock(fr, s)
	case *cminor.DeclStmt:
		c := &Cell{}
		fr.locals[s.Decl.Name] = c
		if s.Decl.Init != nil {
			v, err := m.eval(fr, s.Decl.Init)
			if err != nil {
				return err
			}
			c.Val = v
		}
		return nil
	case *cminor.ExprStmt:
		_, err := m.eval(fr, s.X)
		return err
	case *cminor.If:
		c, err := m.eval(fr, s.Cond)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return m.exec(fr, s.Then)
		}
		if s.Else != nil {
			return m.exec(fr, s.Else)
		}
		return nil
	case *cminor.While:
		for {
			if !s.DoWhile {
				c, err := m.eval(fr, s.Cond)
				if err != nil {
					return err
				}
				if !c.Truthy() {
					return nil
				}
			}
			if err := m.exec(fr, s.Body); err != nil {
				return err
			}
			if fr.done {
				return nil
			}
			if fr.brk {
				fr.brk = false
				return nil
			}
			fr.cont = false
			if s.DoWhile {
				c, err := m.eval(fr, s.Cond)
				if err != nil {
					return err
				}
				if !c.Truthy() {
					return nil
				}
			}
		}
	case *cminor.For:
		if s.Init != nil {
			if err := m.exec(fr, s.Init); err != nil {
				return err
			}
		}
		for {
			if s.Cond != nil {
				c, err := m.eval(fr, s.Cond)
				if err != nil {
					return err
				}
				if !c.Truthy() {
					return nil
				}
			}
			if err := m.exec(fr, s.Body); err != nil {
				return err
			}
			if fr.done {
				return nil
			}
			if fr.brk {
				fr.brk = false
				return nil
			}
			fr.cont = false
			if s.Post != nil {
				if _, err := m.eval(fr, s.Post); err != nil {
					return err
				}
			}
		}
	case *cminor.Switch:
		cond, err := m.eval(fr, s.Cond)
		if err != nil {
			return err
		}
		// Find the matching case (or default), then execute with C
		// fallthrough semantics until a break or the end.
		start := -1
		defaultIdx := -1
		for i, cs := range s.Cases {
			if cs.Default {
				defaultIdx = i
				continue
			}
			for _, ve := range cs.Values {
				v, err := m.eval(fr, ve)
				if err != nil {
					return err
				}
				if valueEq(cond, v) {
					start = i
					break
				}
			}
			if start >= 0 {
				break
			}
		}
		if start < 0 {
			start = defaultIdx
		}
		if start < 0 {
			return nil
		}
		for i := start; i < len(s.Cases); i++ {
			for _, st := range s.Cases[i].Body {
				if err := m.exec(fr, st); err != nil {
					return err
				}
				if fr.done || fr.cont {
					return nil
				}
				if fr.brk {
					fr.brk = false
					return nil
				}
			}
		}
		return nil
	case *cminor.Return:
		if s.X != nil {
			v, err := m.eval(fr, s.X)
			if err != nil {
				return err
			}
			fr.ret = v
		}
		fr.done = true
		return nil
	case *cminor.Break:
		fr.brk = true
		return nil
	case *cminor.Continue:
		fr.cont = true
		return nil
	case *cminor.Empty:
		return nil
	}
	return fmt.Errorf("interp: unsupported statement at %v", m.at(cminor.StmtPos(s)))
}

// --- expressions ---

// lvalue resolves an assignable expression to its cell.
func (m *Machine) lvalue(fr *frame, e cminor.Expr) (*Cell, error) {
	switch e := e.(type) {
	case *cminor.Ident:
		return m.varCell(fr, m.file.Name(e))
	case *cminor.Unary:
		if e.Op == cminor.Star {
			v, err := m.eval(fr, e.X)
			if err != nil {
				return nil, err
			}
			if v.Kind != PtrVal || v.Ptr == nil {
				return &Cell{}, nil // tolerate wild derefs: scratch cell
			}
			return m.noteUse(v.Ptr, m.at(e.Pos)), nil
		}
	case *cminor.FieldAccess:
		fi, ok := m.info.Fields[e]
		off := int64(0)
		if ok {
			off = fi.Field.Offset
		}
		if e.Arrow {
			v, err := m.eval(fr, e.X)
			if err != nil {
				return nil, err
			}
			if v.Kind != PtrVal || v.Ptr == nil {
				return &Cell{}, nil
			}
			if v.Ptr.Obj != nil {
				return m.noteUse(v.Ptr.Obj.Field(v.Ptr.Off+off), m.at(e.Pos)), nil
			}
			return v.Ptr, nil
		}
		inner, err := m.lvalue(fr, e.X)
		if err != nil {
			return nil, err
		}
		if inner.Obj != nil {
			return inner.Obj.Field(inner.Off + off), nil
		}
		// Struct-valued variable: give it backing storage.
		backing, err := m.backingFor(inner)
		if err != nil {
			return nil, err
		}
		return backing.Field(off), nil
	case *cminor.Index:
		v, err := m.eval(fr, e.X)
		if err != nil {
			return nil, err
		}
		if _, err := m.eval(fr, e.I); err != nil {
			return nil, err
		}
		if v.Kind == PtrVal && v.Ptr != nil {
			return v.Ptr, nil // index-insensitive, like the analysis
		}
		return &Cell{}, nil
	case *cminor.Cast:
		return m.lvalue(fr, e.X)
	}
	return &Cell{}, nil
}

// backingFor associates a variable cell with a lazily-created storage
// object (for & and struct-typed locals).
func (m *Machine) backingFor(c *Cell) (*Object, error) {
	if c.Obj != nil {
		return c.Obj, nil
	}
	if m.backings == nil {
		m.backings = make(map[*Cell]*Object)
	}
	if o, ok := m.backings[c]; ok {
		return o, nil
	}
	o, err := m.newObject(nil, cminor.FilePos{})
	if err != nil {
		return nil, err
	}
	// Migrate the current value into the storage's first cell.
	o.Field(0).Val = c.Val
	m.backings[c] = o
	return o, nil
}

// varCell returns the cell of a variable, indirecting through backing
// storage when the variable has any.
func (m *Machine) varCell(fr *frame, name string) (*Cell, error) {
	var c *Cell
	if fr != nil {
		if lc, ok := fr.locals[name]; ok {
			c = lc
		}
	}
	if c == nil {
		if gc, ok := m.globals[name]; ok {
			c = gc
		}
	}
	if c == nil {
		// Function designator or unknown name; handled by eval.
		return nil, fmt.Errorf("interp: no cell for %q", name)
	}
	if m.backings != nil {
		if o, ok := m.backings[c]; ok {
			return o.Field(0), nil
		}
	}
	return c, nil
}

func (m *Machine) eval(fr *frame, e cminor.Expr) (Value, error) {
	if err := m.burn(); err != nil {
		return Value{}, err
	}
	switch e := e.(type) {
	case *cminor.Ident:
		name := m.file.Name(e)
		if c, err := m.varCell(fr, name); err == nil {
			return c.Val, nil
		}
		if ec, ok := m.info.Enums[name]; ok {
			return Value{Kind: IntVal, Int: ec.Value}, nil
		}
		if _, ok := m.info.Funcs[name]; ok {
			return Value{Kind: FnVal, Fn: name}, nil
		}
		return Value{}, nil
	case *cminor.IntLit:
		return Value{Kind: IntVal, Int: e.V}, nil
	case *cminor.StrLit:
		o := m.stringObject(e.V, m.at(e.Pos))
		return Value{Kind: PtrVal, Ptr: o.Field(0)}, nil
	case *cminor.Null:
		return Value{Kind: NullVal}, nil
	case *cminor.Unary:
		return m.evalUnary(fr, e)
	case *cminor.Postfix:
		c, err := m.lvalue(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		old := c.Val
		delta := int64(1)
		if e.Op == cminor.Dec {
			delta = -1
		}
		if old.Kind == IntVal || old.Kind == NullVal {
			c.Val = Value{Kind: IntVal, Int: old.Int + delta}
		}
		return old, nil
	case *cminor.Binary:
		return m.evalBinary(fr, e)
	case *cminor.AssignExpr:
		rhs, err := m.eval(fr, e.RHS)
		if err != nil {
			return Value{}, err
		}
		c, err := m.lvalue(fr, e.LHS)
		if err != nil {
			return Value{}, err
		}
		if e.Op != cminor.Assign {
			if c.Val.Kind == IntVal && rhs.Kind == IntVal {
				if e.Op == cminor.PlusAssign {
					rhs = Value{Kind: IntVal, Int: c.Val.Int + rhs.Int}
				} else {
					rhs = Value{Kind: IntVal, Int: c.Val.Int - rhs.Int}
				}
			}
		}
		m.storeCell(c, rhs)
		return rhs, nil
	case *cminor.CondExpr:
		c, err := m.eval(fr, e.Cond)
		if err != nil {
			return Value{}, err
		}
		if c.Truthy() {
			return m.eval(fr, e.Then)
		}
		return m.eval(fr, e.Else)
	case *cminor.Call:
		return m.evalCall(fr, e)
	case *cminor.Index, *cminor.FieldAccess:
		c, err := m.lvalue(fr, e)
		if err != nil {
			return Value{}, err
		}
		return c.Val, nil
	case *cminor.Cast:
		return m.eval(fr, e.X)
	case *cminor.SizeofType, *cminor.SizeofExpr:
		if sz, ok := m.info.Sizeofs[e]; ok {
			return Value{Kind: IntVal, Int: sz}, nil
		}
		return Value{Kind: IntVal, Int: 8}, nil
	}
	return Value{}, fmt.Errorf("interp: unsupported expression at %v", m.at(cminor.ExprPos(e)))
}

func (m *Machine) evalUnary(fr *frame, e *cminor.Unary) (Value, error) {
	switch e.Op {
	case cminor.Star:
		v, err := m.eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if v.Kind == PtrVal && v.Ptr != nil {
			return v.Ptr.Val, nil
		}
		return Value{}, nil
	case cminor.Amp:
		c, err := m.lvalue(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if c.Obj == nil {
			o, err := m.backingFor(c)
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: PtrVal, Ptr: o.Field(0)}, nil
		}
		return Value{Kind: PtrVal, Ptr: c}, nil
	case cminor.Not:
		v, err := m.eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if v.Truthy() {
			return Value{Kind: IntVal, Int: 0}, nil
		}
		return Value{Kind: IntVal, Int: 1}, nil
	case cminor.Minus:
		v, err := m.eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: IntVal, Int: -v.Int}, nil
	case cminor.Tilde:
		v, err := m.eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: IntVal, Int: ^v.Int}, nil
	case cminor.Inc, cminor.Dec:
		c, err := m.lvalue(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if e.Op == cminor.Dec {
			delta = -1
		}
		if c.Val.Kind == IntVal || c.Val.Kind == NullVal {
			c.Val = Value{Kind: IntVal, Int: c.Val.Int + delta}
		}
		return c.Val, nil
	}
	return Value{}, fmt.Errorf("interp: unsupported unary at %v", m.at(e.Pos))
}

func (m *Machine) evalBinary(fr *frame, e *cminor.Binary) (Value, error) {
	// Short-circuit logicals first.
	if e.Op == cminor.AndAnd || e.Op == cminor.OrOr {
		x, err := m.eval(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if e.Op == cminor.AndAnd && !x.Truthy() {
			return Value{Kind: IntVal, Int: 0}, nil
		}
		if e.Op == cminor.OrOr && x.Truthy() {
			return Value{Kind: IntVal, Int: 1}, nil
		}
		y, err := m.eval(fr, e.Y)
		if err != nil {
			return Value{}, err
		}
		if y.Truthy() {
			return Value{Kind: IntVal, Int: 1}, nil
		}
		return Value{Kind: IntVal, Int: 0}, nil
	}
	x, err := m.eval(fr, e.X)
	if err != nil {
		return Value{}, err
	}
	y, err := m.eval(fr, e.Y)
	if err != nil {
		return Value{}, err
	}
	b2i := func(b bool) Value {
		if b {
			return Value{Kind: IntVal, Int: 1}
		}
		return Value{Kind: IntVal, Int: 0}
	}
	switch e.Op {
	case cminor.Eq:
		return b2i(valueEq(x, y)), nil
	case cminor.Neq:
		return b2i(!valueEq(x, y)), nil
	case cminor.Lt:
		return b2i(x.Int < y.Int), nil
	case cminor.Gt:
		return b2i(x.Int > y.Int), nil
	case cminor.Le:
		return b2i(x.Int <= y.Int), nil
	case cminor.Ge:
		return b2i(x.Int >= y.Int), nil
	case cminor.Plus, cminor.Minus, cminor.Star, cminor.Slash, cminor.Percent,
		cminor.Amp, cminor.Pipe, cminor.Caret:
		// Pointer arithmetic keeps the pointer (offset-insensitive,
		// matching the static treatment).
		if x.Kind == PtrVal {
			return x, nil
		}
		if y.Kind == PtrVal {
			return y, nil
		}
		var r int64
		switch e.Op {
		case cminor.Plus:
			r = x.Int + y.Int
		case cminor.Minus:
			r = x.Int - y.Int
		case cminor.Star:
			r = x.Int * y.Int
		case cminor.Slash:
			if y.Int != 0 {
				r = x.Int / y.Int
			}
		case cminor.Percent:
			if y.Int != 0 {
				r = x.Int % y.Int
			}
		case cminor.Amp:
			r = x.Int & y.Int
		case cminor.Pipe:
			r = x.Int | y.Int
		case cminor.Caret:
			r = x.Int ^ y.Int
		}
		return Value{Kind: IntVal, Int: r}, nil
	}
	return Value{}, fmt.Errorf("interp: unsupported binary at %v", m.at(e.Pos))
}

func valueEq(x, y Value) bool {
	if x.Kind == NullVal && y.Kind == NullVal {
		return true
	}
	if x.Kind == NullVal {
		return y.Kind == IntVal && y.Int == 0
	}
	if y.Kind == NullVal {
		return x.Kind == IntVal && x.Int == 0
	}
	if x.Kind != y.Kind {
		return false
	}
	switch x.Kind {
	case IntVal:
		return x.Int == y.Int
	case PtrVal:
		return x.Ptr == y.Ptr
	case RegionVal:
		return x.Region == y.Region
	case FnVal:
		return x.Fn == y.Fn
	}
	return false
}

func (m *Machine) evalCall(fr *frame, e *cminor.Call) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := m.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	// Resolve the callee.
	if id, ok := e.Fun.(*cminor.Ident); ok {
		// Prefer a variable holding a function pointer, else the
		// function itself.
		name := m.file.Name(id)
		if c, err := m.varCell(fr, name); err == nil {
			if c.Val.Kind == FnVal {
				return m.call(c.Val.Fn, args, m.at(e.Pos))
			}
		}
		return m.call(name, args, m.at(e.Pos))
	}
	v, err := m.eval(fr, e.Fun)
	if err != nil {
		return Value{}, err
	}
	if v.Kind == FnVal {
		return m.call(v.Fn, args, m.at(e.Pos))
	}
	return Value{}, nil
}
