package lang

// This file exposes the compiler's resolution front end — slot
// assignment and fixpoint type inference — to alternative backends.
// The bytecode VM (internal/lang/vm) lowers the same slot-resolved AST
// to instructions instead of closures; sharing the front end guarantees
// both backends agree on slot numbering, local kinds, and the exact set
// of programs inside the compiled subset. Every NotCompilableError is
// raised here or in the shared inference passes, so a successful
// ResolveLoop means lowering cannot fail.

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
// loops outside the compiled subset, exactly as CompileLoop does.
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
