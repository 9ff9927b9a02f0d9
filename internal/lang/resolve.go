package lang

import (
	"fmt"
	"sort"
)

// This file is the resolution front end of the compiled subset: it
// assigns every local, global, array, and buffer a fixed integer slot
// and infers every variable's kind to a fixpoint. The bytecode VM
// (internal/lang/vm) lowers the slot-resolved AST to register
// instructions over a reusable per-kernel frame.
//
// The tree-walking interpreter (interp.go) remains the reference
// semantics: any construct the front end cannot prove the VM
// reproduces bit-for-bit (key tuples used as values, vector aliasing
// assignments, statically ill-typed programs whose exact runtime error
// the interpreter defines) is rejected with *NotCompilableError, and
// callers fall back to interpretation. Every NotCompilableError is
// raised here, so a successful ResolveLoop means lowering cannot fail.
// The differential tests of internal/lang/vm hold the VM to
// bitwise-identical DistArray and accumulator results.

// CompileEnv is the statically known environment a loop is compiled
// against: array extents, buffer targets, and the names of driver
// globals (inherited variables and accumulators).
type CompileEnv struct {
	Arrays  map[string][]int64
	Buffers map[string]string // buffer name -> target array
	Globals []string
}

// NotCompilableError reports that a loop is outside the compiled
// backend's subset; callers should fall back to the interpreter, which
// defines the semantics (including the exact runtime error) for these
// programs.
type NotCompilableError struct {
	Reason string
	At     Pos
}

func (e *NotCompilableError) Error() string {
	return fmt.Sprintf("lang: loop not compilable: %s", e.Reason)
}

// VarKind classifies a resolved local variable or expression.
type VarKind uint8

const (
	KindNone VarKind = iota
	KindFloat
	KindVec
	KindBool
)

func (k VarKind) String() string {
	switch k {
	case KindFloat:
		return "scalar"
	case KindVec:
		return "vector"
	case KindBool:
		return "boolean"
	}
	return "undefined"
}

func kindOfVtype(t vtype) VarKind {
	switch t {
	case tFloat:
		return KindFloat
	case tVec:
		return KindVec
	case tBool:
		return KindBool
	}
	return KindNone
}

// DenseAccess is the optional raw-storage contract for fused point and
// row accesses: an array that holds a dense window of its global
// coordinate space in flat float64 storage. DenseWindow fills lo and hi
// (one entry per dimension, supplied by the caller so a rebind does not
// allocate) with the window [lo[d], hi[d]) in global coordinates and
// returns the storage and its per-dimension strides: element idx lives
// at data[Σ (idx[d]-lo[d])*stride[d]], and stride[0] == 1, so a full
// first-dimension range is one contiguous run. Coordinates outside the
// window go through At/SetAt. Implementations with no dense backing, or
// an empty window, return (nil, nil). A whole *dsm.DistArray is the
// zero-origin window; a *dsm.Partition reports its [Lo, Hi) range along
// its partition dimension.
type DenseAccess interface {
	ArrayAccess
	DenseWindow(lo, hi []int64) (data []float64, stride []int64)
}

// Resolution is the front half of a compilation: types inferred to a
// fixpoint, strict checks passed, and every name assigned its slot. It
// is immutable once returned.
type Resolution struct {
	c *compiler
}

// ResolveLoop runs slot assignment and type inference against the
// environment without lowering. It returns *NotCompilableError for
// loops outside the compiled subset.
func ResolveLoop(loop *Loop, env *CompileEnv) (res *Resolution, err error) {
	defer func() {
		if r := recover(); r != nil {
			if nce, ok := r.(*NotCompilableError); ok {
				res, err = nil, nce
				return
			}
			panic(r)
		}
	}()
	c := &compiler{loop: loop, env: env, types: map[string]vtype{}}
	c.setup()
	c.infer()
	c.assignSlots()
	return &Resolution{c: c}, nil
}

// Loop returns the resolved loop's AST.
func (r *Resolution) Loop() *Loop { return r.c.loop }

// NumFloat, NumVec, and NumBool report the local slot counts per kind.
func (r *Resolution) NumFloat() int { return len(r.c.floatIx) }
func (r *Resolution) NumVec() int   { return len(r.c.vecIx) }
func (r *Resolution) NumBool() int  { return len(r.c.boolIx) }

// ValSlot returns ValVar's float slot, or -1 when the loop has no value
// variable.
func (r *Resolution) ValSlot() int { return r.c.valSlot() }

// LocalKind reports a local variable's inferred kind; ok is false for
// names that are not locals (globals, arrays, buffers, the key tuple).
func (r *Resolution) LocalKind(name string) (VarKind, bool) {
	t, ok := r.c.types[name]
	if !ok {
		return KindNone, false
	}
	return kindOfVtype(t), true
}

// FloatSlot, VecSlot, and BoolSlot resolve a local name to its slot
// within its kind's register file.
func (r *Resolution) FloatSlot(name string) (int, bool) {
	s, ok := r.c.floatIx[name]
	return s, ok
}

func (r *Resolution) VecSlot(name string) (int, bool) {
	s, ok := r.c.vecIx[name]
	return s, ok
}

func (r *Resolution) BoolSlot(name string) (int, bool) {
	s, ok := r.c.boolIx[name]
	return s, ok
}

// Globals returns the global names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Globals() []string { return r.c.globalNames }

// GlobalSlot resolves a global name to its slot.
func (r *Resolution) GlobalSlot(name string) (int, bool) {
	s, ok := r.c.globalIx[name]
	return s, ok
}

// Arrays returns the array names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Arrays() []string { return r.c.arrayNames }

// ArrayIndex resolves an array name to its slot.
func (r *Resolution) ArrayIndex(name string) (int, bool) {
	s, ok := r.c.arrayIx[name]
	return s, ok
}

// ArrayDims returns array slot ai's compile-time extents. The slice is
// shared; callers must not mutate it.
func (r *Resolution) ArrayDims(ai int) []int64 { return r.c.arrayDims[ai] }

// Buffers returns the buffer names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Buffers() []string { return r.c.bufNames }

// BufferIndex resolves a buffer name to its slot.
func (r *Resolution) BufferIndex(name string) (int, bool) {
	s, ok := r.c.bufIx[name]
	return s, ok
}

// ExprKind types an expression of the resolved loop body. Inference has
// already converged, so the call is read-only and idempotent. Calling
// it on an expression outside the resolved body may panic.
func (r *Resolution) ExprKind(e Expr) VarKind {
	return kindOfVtype(r.c.inferExpr(e))
}

// vtype is a variable's statically inferred kind.
type vtype uint8

const (
	tNone vtype = iota // not yet known (read would be a runtime error)
	tFloat
	tVec
	tBool
)

func (t vtype) String() string {
	switch t {
	case tFloat:
		return "scalar"
	case tVec:
		return "vector"
	case tBool:
		return "boolean"
	}
	return "undefined"
}

type compiler struct {
	loop *Loop
	env  *CompileEnv

	types   map[string]vtype
	changed bool
	strict  bool

	globalIx    map[string]int
	globalNames []string
	arrayIx     map[string]int
	arrayNames  []string
	arrayDims   [][]int64
	bufIx       map[string]int
	bufNames    []string

	floatIx map[string]int
	vecIx   map[string]int
	boolIx  map[string]int
}

func (c *compiler) nc(at Pos, format string, args ...interface{}) {
	panic(&NotCompilableError{Reason: fmt.Sprintf(format, args...), At: at})
}

func (c *compiler) valSlot() int {
	if c.loop.ValVar == "" {
		return -1
	}
	return c.floatIx[c.loop.ValVar]
}

// setup assigns array/buffer/global slots and rejects name collisions
// whose dynamic shadowing behavior the interpreter defines.
func (c *compiler) setup() {
	l := c.loop
	c.arrayIx = map[string]int{}
	names := make([]string, 0, len(c.env.Arrays))
	for n := range c.env.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.arrayIx[n] = len(c.arrayNames)
		c.arrayNames = append(c.arrayNames, n)
		c.arrayDims = append(c.arrayDims, append([]int64(nil), c.env.Arrays[n]...))
	}
	c.bufIx = map[string]int{}
	names = names[:0]
	for n := range c.env.Buffers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, dup := c.arrayIx[n]; dup {
			c.nc(l.At, "name %q is both an array and a buffer", n)
		}
		c.bufIx[n] = len(c.bufNames)
		c.bufNames = append(c.bufNames, n)
	}
	c.globalIx = map[string]int{}
	for _, n := range c.env.Globals {
		if _, dup := c.globalIx[n]; dup {
			continue
		}
		if _, isArr := c.arrayIx[n]; isArr {
			c.nc(l.At, "name %q is both a global and an array", n)
		}
		c.globalIx[n] = len(c.globalNames)
		c.globalNames = append(c.globalNames, n)
	}

	if _, ok := c.globalIx[l.KeyVar]; ok {
		c.nc(l.At, "key variable %q shadows a global", l.KeyVar)
	}
	if _, ok := c.arrayIx[l.KeyVar]; ok {
		c.nc(l.At, "key variable %q shadows an array", l.KeyVar)
	}
	if l.ValVar != "" {
		if l.ValVar == l.KeyVar {
			c.nc(l.At, "key and value variables share the name %q", l.KeyVar)
		}
		if _, ok := c.globalIx[l.ValVar]; ok {
			c.nc(l.At, "value variable %q shadows a global", l.ValVar)
		}
		c.types[l.ValVar] = tFloat
	}

	// Assigned local names must not collide with arrays, buffers, or
	// the key: the interpreter resolves such names dynamically per
	// definedness, which the static slot scheme does not model.
	assigned := map[string]Pos{}
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case *Assign:
				if id, ok := s.Target.(*Ident); ok {
					if _, g := c.globalIx[id.Name]; !g {
						assigned[id.Name] = id.At
					}
				}
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *ForRange:
				if _, g := c.globalIx[s.Var]; g {
					c.nc(s.At, "inner loop variable %q shadows a global", s.Var)
				}
				assigned[s.Var] = s.At
				walk(s.Body)
			}
		}
	}
	walk(l.Body)
	for name, at := range assigned {
		if name == l.KeyVar {
			c.nc(at, "assignment to the key variable %q", name)
		}
		if _, isArr := c.arrayIx[name]; isArr {
			c.nc(at, "local variable %q shadows an array", name)
		}
		if _, isBuf := c.bufIx[name]; isBuf {
			c.nc(at, "local variable %q shadows a buffer", name)
		}
	}
	// Names collected for checks above also collide with ValVar checks
	// implicitly: ValVar is an ordinary float local.
	if _, isArr := c.arrayIx[l.ValVar]; l.ValVar != "" && isArr {
		c.nc(l.At, "value variable %q shadows an array", l.ValVar)
	}
	if _, isBuf := c.bufIx[l.ValVar]; l.ValVar != "" && isBuf {
		c.nc(l.At, "value variable %q shadows a buffer", l.ValVar)
	}
}

// infer runs type inference to a fixpoint, then a strict pass that
// rejects anything still untyped or statically ill-typed.
func (c *compiler) infer() {
	for i := 0; ; i++ {
		c.changed = false
		c.inferStmts(c.loop.Body)
		if !c.changed {
			break
		}
		if i > len(c.types)+8 {
			c.nc(c.loop.At, "type inference did not converge")
		}
	}
	c.strict = true
	c.inferStmts(c.loop.Body)
}

func (c *compiler) assignSlots() {
	names := make([]string, 0, len(c.types))
	for n := range c.types {
		names = append(names, n)
	}
	sort.Strings(names)
	c.floatIx = map[string]int{}
	c.vecIx = map[string]int{}
	c.boolIx = map[string]int{}
	for _, n := range names {
		switch c.types[n] {
		case tFloat:
			c.floatIx[n] = len(c.floatIx)
		case tVec:
			c.vecIx[n] = len(c.vecIx)
		case tBool:
			c.boolIx[n] = len(c.boolIx)
		}
	}
}

// binResult types op over (l, r), mirroring applyBin's broadcasting.
func (c *compiler) binResult(op string, at Pos, l, r vtype) vtype {
	if l == tNone || r == tNone {
		if c.strict {
			c.nc(at, "operand of %q has no inferable type", op)
		}
		return tNone
	}
	switch op {
	case "+", "-", "*", "/", "^":
		switch {
		case l == tFloat && r == tFloat:
			return tFloat
		case l == tVec && (r == tVec || r == tFloat):
			return tVec
		case l == tFloat && r == tVec:
			return tVec
		}
		c.nc(at, "cannot apply %q to %s and %s", op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		if l == tFloat && r == tFloat {
			return tBool
		}
		c.nc(at, "comparison %q needs scalar operands, got %s and %s", op, l, r)
	}
	c.nc(at, "unsupported operator %q", op)
	return tNone
}

func (c *compiler) inferExpr(e Expr) vtype {
	switch x := e.(type) {
	case *Num:
		return tFloat
	case *Bool:
		return tBool
	case *Ident:
		if x.Name == c.loop.KeyVar {
			c.nc(x.At, "key tuple %q used as a value", x.Name)
		}
		if t, ok := c.types[x.Name]; ok {
			if t == tNone && c.strict {
				c.nc(x.At, "variable %q has no inferable type", x.Name)
			}
			return t
		}
		if _, ok := c.globalIx[x.Name]; ok {
			return tFloat
		}
		if _, ok := c.arrayIx[x.Name]; ok {
			c.nc(x.At, "whole-array reference %q", x.Name)
		}
		if c.strict {
			c.nc(x.At, "read of undefined variable %q", x.Name)
		}
		c.types[x.Name] = tNone
		return tNone
	case *UnOp:
		t := c.inferExpr(x.X)
		if t == tFloat || t == tVec || t == tNone {
			return t
		}
		c.nc(x.At, "cannot negate a %s", t)
	case *BinOp:
		l := c.inferExpr(x.L)
		r := c.inferExpr(x.R)
		return c.binResult(x.Op, x.At, l, r)
	case *Call:
		return c.inferCall(x)
	case *Index:
		return c.inferIndex(x, false)
	case *RangeExpr:
		c.nc(x.At, "range expression outside a subscript")
	}
	c.nc(c.loop.At, "unsupported expression %T", e)
	return tNone
}

func (c *compiler) inferCall(x *Call) vtype {
	args := make([]vtype, len(x.Args))
	none := false
	for i, a := range x.Args {
		args[i] = c.inferExpr(a)
		if args[i] == tNone {
			none = true
		}
	}
	want := func(n int) {
		if len(args) != n {
			c.nc(x.At, "%s takes %d argument(s), got %d", x.Fn, n, len(args))
		}
	}
	if none {
		// Strict passes already rejected tNone inside inferExpr.
		return tNone
	}
	switch x.Fn {
	case "rand":
		want(0)
		return tFloat
	case "dot":
		want(2)
		if args[0] != tVec || args[1] != tVec {
			c.nc(x.At, "dot needs two vectors")
		}
		return tFloat
	case "abs", "abs2", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		want(1)
		if args[0] != tFloat {
			c.nc(x.At, "%s needs a scalar argument", x.Fn)
		}
		return tFloat
	case "min", "max":
		want(2)
		if args[0] != tFloat || args[1] != tFloat {
			c.nc(x.At, "%s needs scalar arguments", x.Fn)
		}
		return tFloat
	case "length":
		want(1)
		if args[0] != tVec {
			c.nc(x.At, "length needs a vector")
		}
		return tFloat
	case "zeros":
		want(1)
		if args[0] != tFloat {
			c.nc(x.At, "zeros needs a scalar length")
		}
		return tVec
	}
	c.nc(x.At, "unsupported function %q", x.Fn)
	return tNone
}

// inferIndex types base[subs...] for reads (write=false) and validates
// the subscript shapes shared with writes.
func (c *compiler) inferIndex(x *Index, write bool) vtype {
	sub1 := func() vtype {
		if len(x.Subs) != 1 {
			c.nc(x.At, "%q takes one subscript", x.Base)
		}
		if _, isRange := x.Subs[0].(*RangeExpr); isRange {
			c.nc(x.At, "range subscript on %q", x.Base)
		}
		t := c.inferExpr(x.Subs[0])
		if t != tFloat && t != tNone {
			c.nc(x.At, "subscript of %q is not a number", x.Base)
		}
		return t
	}
	if x.Base == c.loop.KeyVar {
		if write {
			c.nc(x.At, "write through the key tuple %q", x.Base)
		}
		sub1()
		return tFloat
	}
	if t, isLocal := c.types[x.Base]; isLocal {
		switch t {
		case tVec:
			sub1()
			return tFloat
		case tNone:
			if c.strict {
				c.nc(x.At, "variable %q has no inferable type", x.Base)
			}
			return tNone
		default:
			c.nc(x.At, "subscript of %s variable %q", t, x.Base)
		}
	}
	if _, isBuf := c.bufIx[x.Base]; isBuf {
		if !write {
			c.nc(x.At, "read through buffer %q", x.Base)
		}
		// Buffer writes take point subscripts of any arity (the
		// interpreter performs no arity check against the target).
		for _, sub := range x.Subs {
			if _, isRange := sub.(*RangeExpr); isRange {
				c.nc(x.At, "range subscript in buffer write %q", x.Base)
			}
			if t := c.inferExpr(sub); t != tFloat && t != tNone {
				c.nc(x.At, "subscript of %q is not a number", x.Base)
			}
		}
		return tFloat
	}
	ai, isArr := c.arrayIx[x.Base]
	if !isArr {
		if _, isGlobal := c.globalIx[x.Base]; isGlobal {
			c.nc(x.At, "subscript of scalar global %q", x.Base)
		}
		c.nc(x.At, "subscript of unknown name %q", x.Base)
	}
	dims := c.arrayDims[ai]
	if len(x.Subs) != len(dims) {
		c.nc(x.At, "%s: %d subscripts for %d dims", x.Base, len(x.Subs), len(dims))
	}
	ranges := 0
	for _, sub := range x.Subs {
		if r, isRange := sub.(*RangeExpr); isRange {
			ranges++
			if !r.Full {
				if t := c.inferExpr(r.Lo); t != tFloat && t != tNone {
					c.nc(x.At, "range bound of %q is not a number", x.Base)
				}
				if t := c.inferExpr(r.Hi); t != tFloat && t != tNone {
					c.nc(x.At, "range bound of %q is not a number", x.Base)
				}
			}
			continue
		}
		if t := c.inferExpr(sub); t != tFloat && t != tNone {
			c.nc(x.At, "subscript of %q is not a number", x.Base)
		}
	}
	switch ranges {
	case 0:
		return tFloat
	case 1:
		return tVec
	}
	c.nc(x.At, "%s: more than one range subscript", x.Base)
	return tNone
}

func (c *compiler) setLocalType(name string, at Pos, t vtype) {
	if t == tNone {
		if c.strict {
			c.nc(at, "variable %q has no inferable type", name)
		}
		if _, seen := c.types[name]; !seen {
			c.types[name] = tNone
			c.changed = true
		}
		return
	}
	cur, seen := c.types[name]
	if !seen || cur == tNone {
		c.types[name] = t
		c.changed = true
		return
	}
	if cur != t {
		c.nc(at, "variable %q assigned both %s and %s values", name, cur, t)
	}
}

func (c *compiler) inferStmts(body []Stmt) {
	for _, st := range body {
		switch s := st.(type) {
		case *Assign:
			c.inferAssign(s)
		case *If:
			t := c.inferExpr(s.Cond)
			if t != tBool && t != tNone {
				c.nc(s.At, "if condition is not boolean")
			}
			c.inferStmts(s.Then)
			c.inferStmts(s.Else)
		case *ForRange:
			for _, b := range []Expr{s.Lo, s.Hi} {
				if t := c.inferExpr(b); t != tFloat && t != tNone {
					c.nc(s.At, "loop bound is not a number")
				}
			}
			c.setLocalType(s.Var, s.At, tFloat)
			c.inferStmts(s.Body)
		case *ExprStmt:
			c.inferExpr(s.X)
		default:
			c.nc(c.loop.At, "unsupported statement %T", st)
		}
	}
}

func (c *compiler) inferAssign(s *Assign) {
	rhs := c.inferExpr(s.Value)
	switch t := s.Target.(type) {
	case *Ident:
		if t.Name == c.loop.KeyVar {
			c.nc(t.At, "assignment to the key variable %q", t.Name)
		}
		if _, isGlobal := c.globalIx[t.Name]; isGlobal {
			if rhs == tNone {
				return
			}
			if rhs != tFloat {
				c.nc(t.At, "global %q assigned a %s value", t.Name, rhs)
			}
			return
		}
		if s.Op == "=" {
			if rhs == tVec {
				if _, alias := s.Value.(*Ident); alias {
					c.nc(t.At, "vector aliasing assignment %q = %q", t.Name, s.Value)
				}
			}
			c.setLocalType(t.Name, t.At, rhs)
			return
		}
		cur := c.types[t.Name]
		if cur == tNone || rhs == tNone {
			if c.strict {
				c.nc(t.At, "%s of variable %q with no inferable type", s.Op, t.Name)
			}
			return
		}
		if res := c.binResult(string(s.Op[0]), t.At, cur, rhs); res != cur {
			c.nc(t.At, "%s changes %q from %s to %s", s.Op, t.Name, cur, res)
		}
	case *Index:
		targetT := c.inferIndex(t, true)
		if rhs == tNone || targetT == tNone {
			if c.strict {
				c.nc(t.At, "assignment through %q has no inferable type", t.Base)
			}
			return
		}
		if _, isBuf := c.bufIx[t.Base]; isBuf {
			if s.Op != "+=" && s.Op != "-=" {
				c.nc(t.At, "DistArray Buffer %q accepts only += and -= writes", t.Base)
			}
			if rhs != tFloat {
				c.nc(t.At, "buffer write needs a scalar")
			}
			return
		}
		if targetT == tFloat {
			// Point write (array element, vector element, key — key
			// writes were rejected in inferIndex).
			if rhs != tFloat {
				c.nc(t.At, "scalar write to %q needs a scalar value", t.Base)
			}
			return
		}
		// Range write.
		if s.Op == "=" {
			if rhs != tVec {
				c.nc(t.At, "range write to %q needs a vector value", t.Base)
			}
			return
		}
		if res := c.binResult(string(s.Op[0]), t.At, tVec, rhs); res != tVec {
			c.nc(t.At, "range update to %q is not a vector", t.Base)
		}
	default:
		c.nc(s.At, "bad assignment target %s", s.Target)
	}
}
