// Package interp is a concrete interpreter for CMinor implementing the
// paper's operational semantics (Figure 4). It executes programs
// flow-sensitively, tracks the three effect relations — p (subregion),
// f (ownership), and σ (access) — exactly as the judgments generate
// them, and decides region lifetime consistency per equation (4.12).
//
// The interpreter is the ground truth against which the static
// analysis's soundness is property-tested: every concrete inconsistent
// object pair must surface as a statically reported pair (on the
// language fragment the analysis supports).
package interp

import (
	"errors"
	"fmt"

	"repro/internal/cminor"
)

// Value is a concrete value: integers, pointers to cells, regions,
// functions, or null.
type Value struct {
	Kind ValueKind
	Int  int64
	// Ptr points at a cell (object field or variable).
	Ptr *Cell
	// Region for region values.
	Region *Region
	// Fn for function designators.
	Fn string
}

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	NullVal ValueKind = iota
	IntVal
	PtrVal
	RegionVal
	FnVal
)

// Truthy follows C semantics.
func (v Value) Truthy() bool {
	switch v.Kind {
	case IntVal:
		return v.Int != 0
	case NullVal:
		return false
	default:
		return true
	}
}

// Object is a concrete allocated object: a bag of cells indexed by
// byte offset.
type Object struct {
	ID    int
	Owner *Region // nil when allocated with no region (root-like)
	// Site is the source position of the allocating call.
	Site cminor.FilePos
	// cells are created lazily per offset.
	cells map[int64]*Cell
	// IsString marks string literal objects.
	IsString bool
	Str      string
	// Freed marks memory reclaimed by apr_pool_clear while the pool
	// handle itself stays alive.
	Freed bool
}

// Cell is one mutable location (an object field or a variable).
type Cell struct {
	Obj *Object // nil for plain variables
	Off int64
	Val Value
}

// Field returns the cell at offset off, creating it as null.
func (o *Object) Field(off int64) *Cell {
	c, ok := o.cells[off]
	if !ok {
		c = &Cell{Obj: o, Off: off}
		o.cells[off] = c
	}
	return c
}

// Region is a concrete region with its parent (nil = the root).
type Region struct {
	ID     int
	Parent *Region
	Site   cminor.FilePos
	Alive  bool
}

// Leq reports the subregion partial order r ⊑ other (reflexive
// transitive closure of the parent chain; everything ⊑ root=nil).
func (r *Region) Leq(other *Region) bool {
	if other == nil {
		return true
	}
	for x := r; x != nil; x = x.Parent {
		if x == other {
			return true
		}
	}
	return false
}

// DanglingUse records a dereference of memory whose owner region was
// already deleted — the crash the paper's Section 1 warns about. The
// static analysis prevents these before deployment; the interpreter
// observes them per schedule.
type DanglingUse struct {
	Pos cminor.FilePos
	Obj *Object
}

// AccessEdge records one σ tuple: object Src stores a pointer at Off
// to Dst (an object or a region).
type AccessEdge struct {
	Src    *Object
	Off    int64
	DstObj *Object // exactly one of DstObj/DstReg set
	DstReg *Region
}

// Effects are the concrete p, f, σ relations accumulated by a run.
type Effects struct {
	Regions []*Region
	Objects []*Object
	Access  []AccessEdge
	// Dangling lists the use-after-delete events observed during the
	// run (empty for programs whose region placement is consistent
	// and whose accesses respect deletion order).
	Dangling []DanglingUse
}

// Inconsistency is one concrete violation of (4.12): the owner regions
// of an access pair have no subregion partial order.
type Inconsistency struct {
	Edge AccessEdge
	// SrcRegion / DstRegion are the owners witnessing x ⋠ y.
	SrcRegion, DstRegion *Region
}

// ownerOf maps an object to its owner region (nil = root).
func ownerOf(o *Object) *Region { return o.Owner }

// Inconsistencies applies (4.12) to the accumulated effects: for every
// access tuple, the holder's region must be ⊑ the pointee's region
// (with φ⁼ making a region its own pointee set member).
func (e *Effects) Inconsistencies() []Inconsistency {
	var out []Inconsistency
	for _, edge := range e.Access {
		x := ownerOf(edge.Src)
		var y *Region
		if edge.DstReg != nil {
			y = edge.DstReg
		} else if edge.DstObj != nil {
			if edge.DstObj.Owner == nil && !edge.DstObj.IsString {
				// Non-region-allocated target: immortal, always safe.
				continue
			}
			if edge.DstObj.IsString {
				continue
			}
			y = ownerOf(edge.DstObj)
		}
		if x == nil {
			// Holder not region-allocated: outside the formalism's σ.
			continue
		}
		if !x.Leq(y) {
			out = append(out, Inconsistency{Edge: edge, SrcRegion: x, DstRegion: y})
		}
	}
	return out
}

// Options controls a run.
type Options struct {
	Entry string // default "main"
	// Args are integer arguments passed to the entry function
	// (drives branches in property tests).
	Args []int64
	// Fuel bounds executed statements and expressions; exceeding it
	// aborts the run with a fuel BudgetError (default 1 << 20).
	Fuel int
	// MaxObjects bounds allocation count (default 1 << 16).
	MaxObjects int
	// MaxDepth bounds the interpreter call-stack depth — CMinor call
	// frames plus cleanup callbacks run recursively by region teardown
	// — so generated deep recursion aborts with a typed BudgetError
	// instead of overflowing the Go stack (default 2048).
	MaxDepth int
	// MaxRegionDepth bounds region-tree nesting: creating a region
	// whose parent chain is already this long fails with a BudgetError
	// (default 1 << 14). Deep nesting is quadratic to tear down
	// (killRegion walks ancestor chains), so the oracle's call-depth
	// inflation cannot turn the interpreter into the hang.
	MaxRegionDepth int
}

// BudgetError reports an exceeded execution budget. It is the typed
// abort the differential oracle relies on: a budgeted run ends with a
// classifiable error instead of hanging or overflowing the stack.
type BudgetError struct {
	// Resource is the exhausted budget: "fuel", "objects",
	// "call-depth", or "region-depth".
	Resource string
	// Limit is the configured bound that was hit.
	Limit int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("interp: %s budget exceeded (limit %d)", e.Resource, e.Limit)
}

// Is matches ErrBudget (any exhausted budget) and any *BudgetError
// with the same Resource, so errors.Is(err, ErrFuel) holds for every
// fuel exhaustion regardless of the configured limit.
func (e *BudgetError) Is(target error) bool {
	if target == ErrBudget {
		return true
	}
	t, ok := target.(*BudgetError)
	return ok && t.Resource == e.Resource
}

// ErrBudget matches every BudgetError via errors.Is.
var ErrBudget = errors.New("interp: budget exceeded")

// ErrFuel matches fuel exhaustion via errors.Is (and remains the
// historical name for the statement-budget error).
var ErrFuel error = &BudgetError{Resource: "fuel"}

// Machine executes one program.
type Machine struct {
	info  *cminor.Info
	files []*cminor.File
	opts  Options

	// file is the file of the code executing, which positions and
	// identifier names in the AST are relative to; fileOf gives each
	// defined function's.
	file   *cminor.File
	fileOf map[*cminor.FuncDecl]*cminor.File

	globals map[string]*Cell
	effects *Effects
	fuel    int
	depth   int

	strings  map[string]*Object
	backings map[*Cell]*Object

	// cleanups holds the callbacks registered per region via
	// apr_pool_cleanup_register; they run (reverse order, children
	// first) when the region is cleared or destroyed.
	cleanups map[*Region][]cleanupEntry
}

type cleanupEntry struct {
	fn   string
	data Value
}

// Run interprets the program and returns the accumulated effects.
func Run(info *cminor.Info, opts Options, files ...*cminor.File) (*Effects, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Fuel == 0 {
		opts.Fuel = 1 << 20
	}
	if opts.MaxObjects == 0 {
		opts.MaxObjects = 1 << 16
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 2048
	}
	if opts.MaxRegionDepth == 0 {
		opts.MaxRegionDepth = 1 << 14
	}
	m := &Machine{
		info:     info,
		files:    files,
		opts:     opts,
		globals:  make(map[string]*Cell),
		effects:  &Effects{},
		fuel:     opts.Fuel,
		strings:  make(map[string]*Object),
		cleanups: make(map[*Region][]cleanupEntry),
		fileOf:   make(map[*cminor.FuncDecl]*cminor.File),
	}
	for name := range info.Globals {
		m.globals[name] = &Cell{}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*cminor.FuncDecl); ok && fd.Body != nil {
				m.fileOf[fd] = f
			}
		}
	}
	// Global initializers.
	for _, f := range files {
		m.file = f
		for _, d := range f.Decls {
			if vd, ok := d.(*cminor.VarDecl); ok && vd.Init != nil {
				v, err := m.eval(nil, vd.Init)
				if err != nil {
					return m.effects, err
				}
				m.globals[vd.Name].Val = v
			}
		}
	}
	entry := info.Funcs[opts.Entry]
	if entry == nil || entry.Decl == nil || entry.Decl.Body == nil {
		return m.effects, fmt.Errorf("interp: entry %q not defined", opts.Entry)
	}
	args := make([]Value, len(entry.Decl.Params))
	for i := range args {
		if i < len(opts.Args) {
			args[i] = Value{Kind: IntVal, Int: opts.Args[i]}
		}
	}
	_, err := m.call(opts.Entry, args, cminor.FilePos{})
	return m.effects, err
}

// at qualifies a position in the executing code with its file.
func (m *Machine) at(pos cminor.Pos) cminor.FilePos {
	return cminor.FilePos{File: m.file.Path, Pos: pos}
}

// frame is one activation record.
type frame struct {
	fn     *cminor.FuncDecl
	locals map[string]*Cell
	ret    Value
	done   bool // a return executed
	brk    bool
	cont   bool
}

func (m *Machine) burn() error {
	m.fuel--
	if m.fuel <= 0 {
		return &BudgetError{Resource: "fuel", Limit: m.opts.Fuel}
	}
	return nil
}

func (m *Machine) newRegion(parent *Region, pos cminor.FilePos) (*Region, error) {
	depth := 0
	for x := parent; x != nil; x = x.Parent {
		depth++
	}
	if depth >= m.opts.MaxRegionDepth {
		return nil, &BudgetError{Resource: "region-depth", Limit: m.opts.MaxRegionDepth}
	}
	r := &Region{ID: len(m.effects.Regions), Parent: parent, Site: pos, Alive: true}
	m.effects.Regions = append(m.effects.Regions, r)
	return r, nil
}

func (m *Machine) newObject(owner *Region, pos cminor.FilePos) (*Object, error) {
	if len(m.effects.Objects) >= m.opts.MaxObjects {
		return nil, &BudgetError{Resource: "objects", Limit: m.opts.MaxObjects}
	}
	o := &Object{ID: len(m.effects.Objects), Owner: owner, Site: pos, cells: make(map[int64]*Cell)}
	m.effects.Objects = append(m.effects.Objects, o)
	return o, nil
}

func (m *Machine) stringObject(s string, pos cminor.FilePos) *Object {
	if o, ok := m.strings[s]; ok {
		return o
	}
	o := &Object{ID: len(m.effects.Objects), Site: pos, cells: make(map[int64]*Cell), IsString: true, Str: s}
	m.effects.Objects = append(m.effects.Objects, o)
	m.strings[s] = o
	return o
}
