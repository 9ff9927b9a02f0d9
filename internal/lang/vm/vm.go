// Package vm is the register-bytecode backend for DSL loop bodies: the
// slot-resolved AST (lang.ResolveLoop) is lowered to a compact
// instruction stream executed by a switch dispatcher over flat register
// files. It is the fast backend beside the tree-walking interpreter
// (the reference semantics): the same runtime-error messages and
// bitwise-identical results, but every name is a fixed slot, fused
// subscript ops (SubscriptLoadF/SubscriptStoreF, row view/store,
// AxpyRow, DotRows) operate on dense array storage through flat offset
// arithmetic instead of per-element interface calls, and RunBlock
// executes a run of consecutive iterations without re-entering the
// dispatch preamble per element.
//
// The dense storage comes from one windowed contract, lang.DenseAccess:
// a bound view reports its storage, strides, and a global-coordinate
// window [lo, hi) per dimension. A whole DistArray is the zero-origin
// window; an executor's dsm.Partition is the window [Lo, Hi) along its
// partition dimension. Accesses inside the window use the flat-offset
// paths; everything else (outside the window, sparse or degenerate
// storage) goes through the view's At/SetAt, so faults are the
// reference ones. A binding holds the storage itself: when a view's
// storage can change between runs — rotation returns a partition's
// buffer to the pool once a block ends — the caller must Rebind before
// the next run, and a kernel that outlives the storage it ran over
// must Unbind, or it keeps that storage alive.
//
// Differential tests in this package hold the VM and the interpreter to
// bitwise-identical DistArray, accumulator, and error results, over
// whole arrays and over partition windows.
package vm

import (
	"fmt"
	"math"

	"orion/internal/lang"
)

type opcode uint16

// One instruction: an opcode plus up to five register/table operands.
// Register operands index the per-kind register files (fr/vr/br/ir);
// table operands index Prog side tables (consts, names, infos, accs,
// baccs, axpys) or hold jump targets.
type instr struct {
	op            opcode
	a, b, c, d, e int32
}

const (
	opHalt opcode = iota

	// Scalar ops: operands are fr registers unless noted.
	opConstF // fr[a] = consts[b]
	opMovF   // fr[a] = fr[b]
	opChkF   // fault unless flDef[a]; names[b]
	opDefF   // flDef[a] = true
	opLoadG  // fr[a] = gl[b], fault unless glDef[b]; names[c]
	opStoreG // gl[a] = fr[b]; glDef[a] = true
	opCompG  // gl[a] = arith(c, gl[a], fr[b]), fault unless glDef[a]; infos[d]
	opCompF  // fl local compound, same layout as opCompG
	opAddF   // fr[a] = fr[b] + fr[c]
	opSubF
	opMulF
	opDivF
	opPowF
	opNegF // fr[a] = -fr[b]
	opAbsF // fr[a] = fn(fr[b]), one opcode per builtin
	opAbs2F
	opSqrtF
	opExpF
	opLogF
	opFloorF
	opCeilF
	opSigmoidF
	opMinF // fr[a] = min(fr[b], fr[c]) with the interpreter's NaN order
	opMaxF
	opRandF // fr[a] = rng.Float64()
	opKeyF  // fr[a] = float64(key[int64(fr[b])-1] + 1)
	opLenF  // fr[a] = float64(len(vr[b]))
	opDotF  // fr[a] = dot(vr[b], vr[c])  (DotRows)

	// Fused scalar superinstructions. The lowering emits these for the
	// hot register/constant/global operand shapes of scalar-heavy inner
	// loops (one dispatch instead of two); each is bitwise-identical to
	// the unfused pair it replaces, including fault order and messages.
	opKeyC       // fr[a] = float64(key[b-1] + 1), literal 1-based subscript b
	opLoadGU     // fr[a] = gl[b], definedness proven by a dominating load/store
	opArithFC    // fr[a] = arith(d, fr[b], consts[c])
	opArithCF    // fr[a] = arith(d, consts[c], fr[b])
	opArithFG    // fr[a] = arith(d, fr[b], gl[c]); e >= 0 checks glDef[c] (names[e])
	opArithGF    // fr[a] = arith(d, gl[c], fr[b]); e >= 0 checks glDef[c] (names[e])
	opMinFC      // fr[a] = min(fr[b], consts[c])
	opMaxFC      // fr[a] = max(fr[b], consts[c])
	opVElemArith // fr[a] = arith(d, fr[b], vr[c][int64(fr[e])-1]) with bounds fault
	opLdPtMinC   // fr[a] = min(point load accs[b], consts[c])
	opLdPtMaxC   // fr[a] = max(point load accs[b], consts[c])

	// Boolean ops: a is a br register.
	opConstB // br[a] = (b != 0)
	opMovB   // br[a] = br[b]
	opChkB   // fault unless boDef[a]; names[b]
	opDefB   // boDef[a] = true
	opEqB    // br[a] = fr[b] == fr[c]
	opNeB
	opLtB
	opLeB
	opGtB
	opGeB

	// Vector ops: a is a vr register unless noted.
	opChkV     // fault unless vecDef[a]; names[b]
	opChkVElem // fault unless vecDef[a]; names[b], c selects the read/write message
	opDefV     // vecDef[a] = true
	opMovV     // vr[a] = vr[b] (header copy)
	opVElemLd  // fr[a] = vr[b][int64(fr[c])-1] with 1-based bounds fault
	opVElemSt  // vr[a][int64(fr[b])-1] op(d)= fr[c]; d < 0 is plain store
	opVCompS   // vec local a op(c)= scalar fr[b], scratch d, infos[e]
	opVCompV   // vec local a op(c)= vr[b], scratch d, infos[e]
	opVBinVV   // vr[a] = vr[b] op(d) vr[c], scratch e
	opVBinVS   // vr[a] = vr[b] op(d) fr[c], scratch e
	opVBinSV   // vr[a] = fr[b] op(d) vr[c], scratch e
	opVNegV    // vr[a] = -vr[b], scratch c
	opZerosV   // vr[a] = zeros(fr[b]), scratch c
	opAxpyRow  // vr[a] = vr[b] ± fr[c]*vr[w] fused, axpys[d]

	// Array and buffer ops.
	opArrChk   // fault unless arrays[a] != nil; names[b], c selects read/write
	opLdPtF    // fr[a] = point load through accs[b]  (SubscriptLoadF)
	opStPtF    // point store accs[a] <- fr[b], arith c (< 0 plain)  (SubscriptStoreF)
	opStPtC    // point store accs[a] <- consts[b], arith c (< 0 plain)
	opRowViewV // vr[a] = zero-copy consume borrow of accs[b]
	opRowMatV  // vr[a] = materialized range read of accs[b]
	opRowStV   // range store accs[a] <- vr[b]
	opRowUpdS  // range compound accs[a] <- scalar fr[b] (arith in access)
	opRowUpdV  // range compound accs[a] <- vr[b]
	opBufChk   // fault unless buffers[a] != nil; names[b]
	opBufPut   // baccs[a].Put(fr[b])
	opBufPutC  // baccs[a].Put(consts[b])

	// Control flow: absolute pc targets.
	opJmp       // pc = a
	opJmpIfNot  // pc = a unless br[b]
	opJmpCmpNot // pc = a unless fr[b] cmp(d) rhs; e != 0 makes rhs consts[c], else fr[c]
	opForInit   // ir[2a] = int64(fr[b]); ir[2a+1] = int64(fr[c]); d&1/d&2 make lo/hi consts
	opForCond   // loop a: bind float local b and continue, or pc = c
	opForNext   // ir[2a]++; then bind float local d and pc = b, or pc = c

	// Superinstructions built by the post-lowering fusion pass
	// (fuseSuper): each replaces an adjacent group whose unfused form
	// round-trips dead temps through the register file, and executes
	// its components in the original order so faults, messages, and
	// every intermediate rounding step are unchanged.
	opLdPt2C   // fused[b]: two clamped point loads, fr[a1/a2] = min|max(ld accs[b1/b2], consts[c1/c2])
	opAddG2Mul // fr[a] = (fr[f.a1]+gl[f.b1]) * (fr[f.a2]+gl[f.b2]), f = fused[b]; c1/c2 >= 0 check glDef
	opAddGDivR // fr[a] = fr[d] / (fr[b] + gl[c]); e >= 0 checks glDef[c] (names[e])
	opVStAdd   // vr[a][int64(fr[b])-1] = fr[c]; fr[d] = fr[e] + fr[c], one bounds fault
)

// Arithmetic selectors for compound/vector ops, in arithFn order.
const (
	selAdd int32 = iota
	selSub
	selMul
	selDiv
	selPow
)

// Message selectors for opArrChk/opChkVElem.
const (
	selRead int32 = iota
	selWrite
)

// Comparison selectors for opJmpCmpNot, in opEqB..opGeB order.
const (
	cmpEq int32 = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func arith(sel int32, a, b float64) float64 {
	switch sel {
	case selAdd:
		return a + b
	case selSub:
		return a - b
	case selMul:
		return a * b
	case selDiv:
		return a / b
	}
	return math.Pow(a, b)
}

// opInfo carries the statement context compound-assignment faults
// report ("+= of undefined variable ...").
type opInfo struct {
	op   string // "+=", "-=", ...
	name string
}

// access is the static shape of one array subscript site: the subscript
// registers its operands were evaluated into, the compile-time extents,
// and the scratch/index buffers the site owns. The fused ops branch on
// the bound array's dense storage at runtime.
type access struct {
	ai       int32 // array slot
	nameIdx  int32
	rangeDim int32 // -1 for point accesses
	full     bool
	extent   int64   // dims[rangeDim] when full
	dims     []int64 // compile-time extents
	subs     []int32 // fr register per dim; -1 at rangeDim
	loReg    int32   // partial-range bound registers
	hiReg    int32
	ii       int32 // full-rank index buffer
	sid      int32 // scratch id (materialized reads, compound current values)
	sel      int32 // arith selector for compound range updates
}

// rtAcc is the runtime mirror of one point-access site, resolved when
// its array binds: the dense window's storage and the site's strides,
// window origins and extents, and subscript registers flattened into
// one fixed-size struct so the hot opcodes compute a flat offset
// without chasing the per-array dense/stride/window tables. The origin
// o is the window's lower bound plus one, folding the DSL's 1-based
// subscripts into the same subtraction. Rank-1 sites reuse the rank-2
// shape with a zero second stride, an always-passing second extent,
// and sub1 aliased to sub0, so the fast path stays small enough to
// inline into the dispatch loop. Unbound, non-dense, or rank ≥3 sites
// keep fast=false and route through the reference accessors.
type rtAcc struct {
	data       []float64
	s0, s1     int64
	o0, o1     int64
	d0, d1     uint64
	sub0, sub1 int32
	fast       bool
}

// ptOff resolves a point access's flat offset through its runtime
// mirror. ok=false sends the caller to the reference path — which
// repeats the bounds check and reports the fault when a coordinate is
// actually out of range, or serves it when it lies outside the bound
// window but inside the array.
func ptOff(fr []float64, ra *rtAcc) (int64, bool) {
	if !ra.fast {
		return 0, false
	}
	v0 := int64(fr[ra.sub0]) - ra.o0
	v1 := int64(fr[ra.sub1]) - ra.o1
	if uint64(v0) < ra.d0 && uint64(v1) < ra.d1 {
		return v0*ra.s0 + v1*ra.s1, true
	}
	return 0, false
}

// bufAccess is the static shape of one buffer write site.
type bufAccess struct {
	bi      int32
	nameIdx int32
	neg     bool // "-=" negates before Put
	subs    []int32
	ii      int32
}

type axpyInfo struct {
	w   int32 // vr register holding the scaled vector
	sid int32
	sub bool // l - s*w instead of l + s*w
}

// fentry carries the operands of a fused superinstruction that outgrew
// the five-field instr. The field meaning is per-opcode: two
// (dst, operand, const/global, selector) quads laid out in execution
// order.
type fentry struct {
	a1, b1, c1, d1 int32
	a2, b2, c2, d2 int32
}

// Prog is a loop lowered to bytecode. It is immutable and safe to
// share; each executor obtains its own mutable state via NewKernel.
type Prog struct {
	loop *lang.Loop

	code   []instr
	consts []float64
	names  []string
	infos  []opInfo
	accs   []access
	baccs  []bufAccess
	axpys  []axpyInfo
	pins   []pinVal // constant pins, written once per kernel
	fused  []fentry // operand records for superinstructions

	numFloat, numVec, numBool int // local slot counts
	nFReg, nVReg, nBReg       int // register file sizes (locals + temps)
	nFor                      int
	valSlot                   int

	globalIx    map[string]int
	globalNames []string
	arrayIx     map[string]int
	arrayNames  []string
	arrayDims   [][]int64
	bufIx       map[string]int
	bufNames    []string

	nScratch int
	idxSizes []int
}

// Loop returns the compiled loop's AST.
func (p *Prog) Loop() *lang.Loop { return p.loop }

// vmFault carries a runtime error out of the dispatch loop; RunIteration
// and RunBlock recover it back into an error. Non-fault panics (array
// bounds violations, which the interpreter also surfaces as panics)
// propagate unchanged.
type vmFault struct{ err error }

func fail(format string, args ...interface{}) {
	panic(vmFault{fmt.Errorf(format, args...)})
}

// Kernel is one executor's mutable instance of a Prog: register files,
// bound arrays/buffers, globals, and reusable scratch. Not safe for
// concurrent use; create one per goroutine with NewKernel.
type Kernel struct {
	p *Prog

	fr []float64
	vr [][]float64
	br []bool
	ir []int64 // two per inner for loop: counter, limit

	flDef  []bool // per float local
	vecDef []bool
	boDef  []bool

	gl    []float64
	glDef []bool

	arrays  []lang.ArrayAccess
	dense   [][]float64 // non-nil where flat-offset access applies
	stride  [][]int64
	wlo     [][]int64 // dense window [wlo, whi) per array, global coordinates
	whi     [][]int64
	racc    []rtAcc // per point-access runtime mirror
	buffers []lang.BufferAccess
	rng     lang.RandSource

	scratch [][]float64
	idx     [][]int64

	budget   int64
	vecLimit int64
	key      []int64
}

// NewKernel allocates a kernel instance with empty bindings.
func (p *Prog) NewKernel() *Kernel {
	k := &Kernel{p: p}
	k.fr = make([]float64, p.nFReg)
	// Constant pins are loaded once here; no program instruction writes
	// them, so every literal operand reads its register for free.
	for _, pv := range p.pins {
		k.fr[pv.reg] = pv.val
	}
	k.vr = make([][]float64, p.nVReg)
	k.br = make([]bool, p.nBReg)
	k.ir = make([]int64, 2*p.nFor)
	k.flDef = make([]bool, p.numFloat)
	k.vecDef = make([]bool, p.numVec)
	k.boDef = make([]bool, p.numBool)
	k.gl = make([]float64, len(p.globalNames))
	k.glDef = make([]bool, len(p.globalNames))
	k.arrays = make([]lang.ArrayAccess, len(p.arrayNames))
	k.dense = make([][]float64, len(p.arrayNames))
	k.stride = make([][]int64, len(p.arrayNames))
	k.wlo = make([][]int64, len(p.arrayNames))
	k.whi = make([][]int64, len(p.arrayNames))
	for i, dims := range p.arrayDims {
		k.wlo[i] = make([]int64, len(dims))
		k.whi[i] = make([]int64, len(dims))
	}
	k.racc = make([]rtAcc, len(p.accs))
	k.buffers = make([]lang.BufferAccess, len(p.bufNames))
	k.scratch = make([][]float64, p.nScratch)
	k.idx = make([][]int64, len(p.idxSizes))
	for i, n := range p.idxSizes {
		k.idx[i] = make([]int64, n)
	}
	return k
}

// BindArray binds a DistArray view to its slot; the view's extents must
// match the compile-time environment. Views implementing
// lang.DenseAccess with a dense window take the fused flat-offset paths
// for coordinates inside the window; every other access goes through
// the view's At/SetAt.
func (k *Kernel) BindArray(name string, a lang.ArrayAccess) error {
	i, ok := k.p.arrayIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no array %q", name)
	}
	want := k.p.arrayDims[i]
	got := a.Dims()
	if len(got) != len(want) {
		return fmt.Errorf("lang: array %q bound with rank %d, compiled for %d", name, len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			return fmt.Errorf("lang: array %q bound with dims %v, compiled for %v", name, got, want)
		}
	}
	k.arrays[i] = a
	k.bindDense(i)
	return nil
}

// Rebind re-reads the dense window of every bound array and refreshes
// the flat-offset mirrors, without allocating. A view whose storage can
// change between runs — an executor partition that rotation, recovery,
// or reconfiguration replaces at a block boundary — must be rebound
// before the kernel touches it again: the fast paths hold the storage
// slice itself, and the storage of a replaced partition may already be
// recycled.
func (k *Kernel) Rebind() {
	for i, a := range k.arrays {
		if a != nil {
			k.bindDense(i)
		}
	}
}

// Unbind drops every array's dense window, and the vector registers
// that may still borrow rows of it, so the kernel no longer references
// the views' storage; accesses take the reference At/SetAt path until
// the next Rebind. A kernel that outlives the storage it ran over calls
// it when the run ends, so it does not keep that storage alive. Vector
// registers are always written before they are read within an
// iteration, so clearing them changes no result.
func (k *Kernel) Unbind() {
	for i := range k.dense {
		k.dense[i], k.stride[i] = nil, nil
	}
	for j := range k.racc {
		k.racc[j] = rtAcc{}
	}
	for i := range k.vr {
		k.vr[i] = nil
	}
}

// bindDense resolves array slot i's dense window and the runtime
// mirrors of its point-access sites. Windows that are empty or reach
// outside the compile-time extents are not bound: those arrays take
// the reference accessors only.
func (k *Kernel) bindDense(i int) {
	k.dense[i], k.stride[i] = nil, nil
	lo, hi := k.wlo[i], k.whi[i]
	if da, ok := k.arrays[i].(lang.DenseAccess); ok {
		if data, stride := da.DenseWindow(lo, hi); data != nil && windowFits(lo, hi, k.p.arrayDims[i]) {
			k.dense[i], k.stride[i] = data, stride
		}
	}
	// Refresh the runtime mirrors of this array's point-access sites.
	for j := range k.p.accs {
		acc := &k.p.accs[j]
		if int(acc.ai) != i || acc.rangeDim != -1 {
			continue
		}
		ra := &k.racc[j]
		*ra = rtAcc{}
		data, stride := k.dense[i], k.stride[i]
		if data == nil {
			continue
		}
		switch len(acc.dims) {
		case 1:
			// Rank-1 wears the rank-2 shape: the aliased second
			// coordinate contributes stride 0 and always bounds-checks
			// clean unless the first one already failed.
			ra.data, ra.s0, ra.o0, ra.sub0 = data, stride[0], lo[0]+1, acc.subs[0]
			ra.d0 = uint64(hi[0] - lo[0])
			ra.s1, ra.o1, ra.d1, ra.sub1 = 0, lo[0]+1, 1<<62, acc.subs[0]
			ra.fast = true
		case 2:
			ra.data, ra.s0, ra.s1 = data, stride[0], stride[1]
			ra.o0, ra.o1 = lo[0]+1, lo[1]+1
			ra.d0, ra.d1 = uint64(hi[0]-lo[0]), uint64(hi[1]-lo[1])
			ra.sub0, ra.sub1 = acc.subs[0], acc.subs[1]
			ra.fast = true
		}
	}
}

// windowFits reports whether [lo, hi) is a non-empty window inside
// the extents dims in every dimension.
func windowFits(lo, hi, dims []int64) bool {
	for d, n := range dims {
		if lo[d] < 0 || hi[d] > n || lo[d] >= hi[d] {
			return false
		}
	}
	return true
}

// BindBuffer binds a DistArray Buffer to its slot.
func (k *Kernel) BindBuffer(name string, b lang.BufferAccess) error {
	i, ok := k.p.bufIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no buffer %q", name)
	}
	k.buffers[i] = b
	return nil
}

// SetRng backs the rand() builtin (nil makes rand() an error, matching
// Machine semantics).
func (k *Kernel) SetRng(r lang.RandSource) { k.rng = r }

// SetStepBudget bounds inner for-range body executions across the
// kernel's lifetime; 0 disables the budget. Mirrors Machine.StepBudget.
func (k *Kernel) SetStepBudget(n int64) { k.budget = n }

// SetVecLimit bounds zeros() vector lengths; 0 disables the limit.
// Mirrors Machine.VecLimit.
func (k *Kernel) SetVecLimit(n int64) { k.vecLimit = n }

// SetGlobal sets a global slot's value, reporting whether the loop
// declares the name.
func (k *Kernel) SetGlobal(name string, v float64) bool {
	i, ok := k.p.globalIx[name]
	if !ok {
		return false
	}
	k.gl[i] = v
	k.glDef[i] = true
	return true
}

// Global reads a global by name.
func (k *Kernel) Global(name string) (float64, bool) {
	i, ok := k.p.globalIx[name]
	if !ok {
		return 0, false
	}
	return k.gl[i], true
}

// GlobalSlot resolves a global name to its slot (-1 when absent), for
// allocation-free reads via GlobalAt on hot paths.
func (k *Kernel) GlobalSlot(name string) int {
	i, ok := k.p.globalIx[name]
	if !ok {
		return -1
	}
	return i
}

// GlobalAt reads a global by slot.
func (k *Kernel) GlobalAt(slot int) float64 { return k.gl[slot] }

func (k *Kernel) growScratch(sid, n int) []float64 {
	s := k.scratch[sid]
	if n < 0 || cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	k.scratch[sid] = s
	return s
}

// beginIter resets per-iteration state: definedness flags, the borrowed
// key, and the value slot.
func (k *Kernel) beginIter(key []int64, val float64) {
	for i := range k.flDef {
		k.flDef[i] = false
	}
	for i := range k.vecDef {
		k.vecDef[i] = false
	}
	for i := range k.boDef {
		k.boDef[i] = false
	}
	k.key = key
	if k.p.valSlot >= 0 {
		k.fr[k.p.valSlot] = val
		k.flDef[k.p.valSlot] = true
	}
}

// RunIteration executes the loop body for one iteration. The key slice
// is borrowed for the duration of the call and never retained. Runtime
// faults the interpreter reports as errors come back as errors; array
// bounds violations panic, exactly as they do under interpretation.
func (k *Kernel) RunIteration(key []int64, val float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if vf, ok := r.(vmFault); ok {
				err = vf.err
				return
			}
			panic(r)
		}
	}()
	k.beginIter(key, val)
	k.exec()
	return nil
}

// RunBlock executes a run of consecutive iterations with one
// recover/dispatch preamble for the whole batch. onIter (optional) is
// invoked after each completed iteration — the runtime uses it to fold
// accumulator deltas per iteration, preserving float ordering. It
// returns the number of fully completed iterations and the fault that
// stopped the run, if any.
func (k *Kernel) RunBlock(keys [][]int64, vals []float64, onIter func(i int)) (done int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if vf, ok := r.(vmFault); ok {
				err = vf.err
				return
			}
			panic(r)
		}
	}()
	for i := range keys {
		var v float64
		if vals != nil {
			v = vals[i]
		}
		k.beginIter(keys[i], v)
		k.exec()
		done = i + 1
		if onIter != nil {
			onIter(i)
		}
	}
	return done, nil
}

// RunLoop executes the loop body once per element of the bound
// iteration-space array, in deterministic element order, stopping at
// the first error.
func (k *Kernel) RunLoop() error {
	iterVar := k.p.loop.IterVar
	i, ok := k.p.arrayIx[iterVar]
	if !ok || k.arrays[i] == nil {
		return fmt.Errorf("lang: iteration space %q not bound", iterVar)
	}
	iter, ok := k.arrays[i].(lang.Iterable)
	if !ok {
		return fmt.Errorf("lang: iteration space %q is not iterable on this machine", iterVar)
	}
	if u, ok := iter.(lang.IterableUntil); ok {
		var err error
		u.ForEachUntil(func(idx []int64, v float64) bool {
			err = k.RunIteration(idx, v)
			return err == nil
		})
		return err
	}
	var err error
	iter.ForEach(func(idx []int64, v float64) {
		if err != nil {
			return
		}
		err = k.RunIteration(idx, v)
	})
	return err
}
