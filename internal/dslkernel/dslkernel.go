// Package dslkernel compiles DefineLoop messages — DSL loop source
// shipped by the driver over the wire — into executable runtime
// kernels. Installing it (Install) gives any executor process,
// including the generic cmd/orion-worker binary, the ability to run
// loops it has never seen before: the distributed analogue of Orion's
// macro defining generated loop-body functions in its workers.
package dslkernel

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
)

// Install registers the DSL loop compiler with the runtime. Idempotent.
func Install() {
	runtime.SetLoopCompiler(Compile)
}

// Compile builds a kernel set (and prefetch functions) from a
// DefineLoop message. Loop bodies run on the bytecode VM
// (lang/vm.Compile) whenever they fall inside the compiled subset;
// otherwise the tree-walking interpreter — the reference semantics —
// executes them. def.Backend pins the choice: "vm" makes fallback an
// error, "interp" forces interpretation (e.g. for CLI bisection), and
// "" takes the VM, else the interpreter.
func Compile(def *runtime.Msg) (*runtime.KernelSet, error) {
	tb := obs.NewBuf(0, "dslkernel")
	spanStart := tb.Begin()
	defer tb.EndN("kernel.compile", "dsl", spanStart, "src_bytes", int64(len(def.LoopSrc)))
	lk, err := newLoopKernel(def)
	if err != nil {
		return nil, err
	}
	ks := &runtime.KernelSet{Iter: func(ctx *runtime.Ctx, key []int64, val float64) { lk.iter(ctx, key, val) }}
	// The VM additionally exposes the batched block form: one
	// dispatch-loop entry and one panic recovery per block instead of
	// per iteration. Accumulator deltas still fold per iteration (via
	// the per-iteration callback), so the block path is bitwise
	// identical to the one-at-a-time path.
	if lk.vp != nil {
		ks.Block = func(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
			return lk.block(ctx, keys, vals)
		}
	}

	// The plan artifact shipped alongside the source carries the
	// synthesized prefetch spec (and the full parallelization decision,
	// for executors that want to inspect it) — no side-channel fields.
	var pf *plan.Prefetch
	if len(def.PlanBlob) > 0 {
		art, err := plan.Decode(def.PlanBlob)
		if err != nil {
			return nil, fmt.Errorf("dslkernel: decoding shipped plan artifact: %w", err)
		}
		pf = art.Prefetch
	}
	ks.Prefetch = map[string]runtime.PrefetchFunc{}
	if pf != nil && pf.Src != "" && len(pf.Arrays) > 0 {
		sliced, err := lang.Parse(pf.Src)
		if err != nil {
			return nil, fmt.Errorf("dslkernel: parsing shipped prefetch slice: %w", err)
		}
		for _, target := range pf.Arrays {
			target := target
			ks.Prefetch[target] = func(key []int64, val float64) []int64 {
				m := lang.NewMachine()
				for name, d := range def.ArrayDims {
					m.Arrays[name] = dimsOnly(d)
				}
				for k, v := range lk.globals {
					m.Globals[k] = v
				}
				m.Recorder = lang.NewRecorder(target)
				if err := m.RunIteration(sliced, key, val); err != nil {
					return nil
				}
				return m.Recorder.Indices[target]
			}
		}
	}
	return ks, nil
}

// blockCtx is the part of an executor's runtime.Ctx a DSL kernel uses:
// its partitions, served-array access, accumulators, and the block
// clock.
type blockCtx interface {
	PartitionOf(array string) *dsm.Partition
	HasPartition(array string) bool
	ServedRead(array string, off int64) float64
	ServedUpdate(array string, off int64, delta float64)
	ServedSet(array string, off int64, v float64)
	AccumAdd(name string, v float64)
	ExecutorID() int
	BlockPass() int
	BlockStep() int
	BlockEpoch() int64
}

// loopKernel is one executor's instance of a compiled DefineLoop: the
// chosen backend's program plus the per-executor state, created lazily
// on the first call. It is invoked only from its executor's message
// loop, so a single instance suffices.
type loopKernel struct {
	def     *runtime.Msg
	loop    *lang.Loop
	globals map[string]float64
	vp      *vm.Prog

	vs        *vmState
	ms        *machineState
	lastEpoch int64
}

// newLoopKernel parses the shipped loop and lowers it to the first
// backend of the lattice that accepts it (see Compile).
func newLoopKernel(def *runtime.Msg) (*loopKernel, error) {
	loop, err := lang.Parse(def.LoopSrc)
	if err != nil {
		return nil, fmt.Errorf("dslkernel: parsing shipped loop: %w", err)
	}
	if len(def.GlobalNames) != len(def.GlobalVals) {
		return nil, fmt.Errorf("dslkernel: mismatched globals")
	}
	lk := &loopKernel{def: def, loop: loop, globals: make(map[string]float64, len(def.GlobalNames)), lastEpoch: -1}
	for i, n := range def.GlobalNames {
		lk.globals[n] = def.GlobalVals[i]
	}

	switch def.Backend {
	case "", "vm", "interp":
	default:
		return nil, fmt.Errorf("dslkernel: unknown backend %q", def.Backend)
	}
	if def.Backend != "interp" {
		globalNames := append([]string{}, def.GlobalNames...)
		globalNames = append(globalNames, def.AccumNames...)
		env := &lang.CompileEnv{
			Arrays:  def.ArrayDims,
			Buffers: def.Buffers,
			Globals: globalNames,
		}
		lk.vp, err = vm.Compile(loop, env)
		if err != nil {
			var nce *lang.NotCompilableError
			if !errors.As(err, &nce) {
				return nil, fmt.Errorf("dslkernel: compiling shipped loop: %w", err)
			}
			if def.Backend == "vm" {
				return nil, fmt.Errorf("dslkernel: backend=vm requested: %w", err)
			}
			lk.vp = nil // outside the VM subset: interpret
		}
	}
	if lk.vp != nil {
		obs.GetCounter("kernel.vm").Inc()
	} else {
		obs.GetCounter("kernel.interp_fallback").Inc()
	}
	return lk, nil
}

// seedRng seeds the rand() builtin deterministically per (loop,
// executor, block): sampling kernels (e.g. Gibbs) stay reproducible,
// all backends draw the same sequence, and — because the seed is keyed
// on the block's (pass, step) clock rather than on how many blocks this
// process has executed — a run that recovers from a checkpoint mid-loop
// draws exactly the sequence the fault-free run would have drawn for
// the same block.
func (lk *loopKernel) seedRng(ctx blockCtx) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(lk.def.LoopName))
	seed := int64(h.Sum64()) ^ int64(ctx.ExecutorID()*7919)
	seed ^= int64(ctx.BlockPass())*1_000_003 + int64(ctx.BlockStep())*9176
	return rand.New(rand.NewSource(seed))
}

// newBlock reports whether ctx has entered a block this kernel has not
// run in yet, and records it.
func (lk *loopKernel) newBlock(ctx blockCtx) bool {
	if ctx.BlockEpoch() == lk.lastEpoch {
		return false
	}
	lk.lastEpoch = ctx.BlockEpoch()
	return true
}

// enterVM readies the VM state for one kernel call: it reseeds rand()
// at a block boundary and binds every partition window before the
// kernel touches an array; the caller drops the windows (Unbind) when
// the call returns. A binding never outlives the call that made it:
// once a block's kernel returns, rotation hands the previous
// partition's storage back to the buffer pool, recovery and
// reconfiguration replace partitions outright, and the executor keeps
// every loop's kernel set for its lifetime (each ParallelFor defines a
// new loop). A binding kept past the call would read recycled memory in
// a later block, or pin a finished loop's partitions.
func (lk *loopKernel) enterVM(ctx blockCtx) *vmState {
	if lk.vs == nil {
		lk.vs = newVMState(ctx, lk.vp, lk.loop, lk.def.ArrayDims, lk.def.Buffers, lk.globals, lk.def.AccumNames)
	}
	if lk.newBlock(ctx) {
		lk.vs.k.SetRng(lk.seedRng(ctx))
	}
	lk.vs.k.Rebind()
	return lk.vs
}

// iter runs one iteration on the selected backend. The runtime takes
// the batched entry (block) for VM kernels; this one binds the windows
// per iteration.
func (lk *loopKernel) iter(ctx blockCtx, key []int64, val float64) {
	if lk.vp != nil {
		vs := lk.enterVM(ctx)
		defer vs.k.Unbind()
		vs.run(ctx, key, val)
		return
	}
	if lk.ms == nil {
		lk.ms = newMachineState(ctx, lk.loop, lk.def.ArrayDims, lk.def.Buffers, lk.globals, lk.def.AccumNames)
	}
	if lk.newBlock(ctx) {
		lk.ms.m.Rng = lk.seedRng(ctx)
	}
	lk.ms.run(ctx, key, val)
}

// block runs a whole block in one VM entry, binding the partition
// windows once for the block; only VM kernels have it.
func (lk *loopKernel) block(ctx blockCtx, keys [][]int64, vals []float64) (int, error) {
	vs := lk.enterVM(ctx)
	defer vs.k.Unbind()
	return vs.runBlock(ctx, keys, vals)
}

// vmState is one executor's bytecode-VM kernel instance for one loop:
// the register-file machine with partition/served views bound into its
// array slots, plus accumulator shadows for diffing.
type vmState struct {
	k       *vm.Kernel
	accums  []string
	slots   []int
	lastAcc []float64
}

func newVMState(ctx blockCtx, vp *vm.Prog, loop *lang.Loop,
	dims map[string][]int64, buffers map[string]string,
	globals map[string]float64, accums []string) *vmState {
	k := vp.NewKernel()
	for name, d := range dims {
		if name == loop.IterVar {
			// Like the interpreter path, the iteration space stays
			// unbound: body reads of it fault as unknown.
			continue
		}
		var view lang.ArrayAccess
		if ctx.HasPartition(name) {
			view = &partView{ctx: ctx, name: name, dims: d}
		} else {
			view = &servedView{ctx: ctx, name: name, dims: d}
		}
		if err := k.BindArray(name, view); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	for bname, target := range buffers {
		if err := k.BindBuffer(bname, &ctxBuffer{ctx: ctx, target: target, dims: dims[target]}); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	for n, v := range globals {
		k.SetGlobal(n, v)
	}
	vs := &vmState{k: k, accums: accums}
	for _, a := range accums {
		if _, ok := globals[a]; !ok {
			k.SetGlobal(a, 0)
		}
		slot := k.GlobalSlot(a)
		vs.slots = append(vs.slots, slot)
		vs.lastAcc = append(vs.lastAcc, k.GlobalAt(slot))
	}
	return vs
}

func (vs *vmState) run(ctx blockCtx, key []int64, val float64) {
	if err := vs.k.RunIteration(key, val); err != nil {
		panic(fmt.Sprintf("dslkernel: vm kernel: %v", err))
	}
	vs.fold(ctx)
}

// runBlock executes a whole block in one VM entry. The per-iteration
// callback folds accumulator deltas exactly as the one-at-a-time path
// does, so both paths produce bit-identical accumulator streams.
func (vs *vmState) runBlock(ctx blockCtx, keys [][]int64, vals []float64) (int, error) {
	done, err := vs.k.RunBlock(keys, vals, func(int) { vs.fold(ctx) })
	if err != nil {
		return done, fmt.Errorf("dslkernel: vm kernel: %v", err)
	}
	return done, nil
}

func (vs *vmState) fold(ctx blockCtx) {
	for i, a := range vs.accums {
		cur := vs.k.GlobalAt(vs.slots[i])
		if d := cur - vs.lastAcc[i]; d != 0 {
			ctx.AccumAdd(a, d)
			vs.lastAcc[i] = cur
		}
	}
}

// machineState is one executor's interpreter instance for one loop.
type machineState struct {
	m       *lang.Machine
	loop    *lang.Loop
	accums  []string
	lastAcc map[string]float64
}

func newMachineState(ctx blockCtx, loop *lang.Loop, dims map[string][]int64,
	buffers map[string]string, globals map[string]float64, accums []string) *machineState {
	m := lang.NewMachine()
	for name, d := range dims {
		if name == loop.IterVar {
			continue
		}
		if ctx.HasPartition(name) {
			m.Arrays[name] = &partView{ctx: ctx, name: name, dims: d}
		} else {
			m.Arrays[name] = &servedView{ctx: ctx, name: name, dims: d}
		}
	}
	for bname, target := range buffers {
		m.Buffers[bname] = &ctxBuffer{ctx: ctx, target: target, dims: dims[target]}
	}
	for k, v := range globals {
		m.Globals[k] = v
	}
	ms := &machineState{m: m, loop: loop, accums: accums, lastAcc: map[string]float64{}}
	for _, a := range accums {
		if _, ok := m.Globals[a]; !ok {
			m.Globals[a] = float64(0)
		}
		ms.lastAcc[a] = asFloat(m.Globals[a])
	}
	return ms
}

func (ms *machineState) run(ctx blockCtx, key []int64, val float64) {
	if err := ms.m.RunIteration(ms.loop, key, val); err != nil {
		panic(fmt.Sprintf("dslkernel: interpreted kernel: %v", err))
	}
	for _, a := range ms.accums {
		cur := asFloat(ms.m.Globals[a])
		if d := cur - ms.lastAcc[a]; d != 0 {
			ctx.AccumAdd(a, d)
			ms.lastAcc[a] = cur
		}
	}
}

func asFloat(v lang.Value) float64 {
	f, _ := v.(float64)
	return f
}

// partView adapts an executor's (possibly rotated) partition to the
// interpreter's ArrayAccess, with global coordinates. The partition is
// looked up per access because rotation replaces it between blocks.
// It also forwards the partition's dense window (lang.DenseAccess), so
// the VM runs its flat-offset paths over the partition's own storage;
// that binding lasts for one kernel call (see loopKernel.enterVM).
type partView struct {
	ctx  blockCtx
	name string
	dims []int64
}

func (p *partView) Dims() []int64 { return p.dims }
func (p *partView) At(idx ...int64) float64 {
	return p.ctx.PartitionOf(p.name).At(idx...)
}
func (p *partView) SetAt(v float64, idx ...int64) {
	p.ctx.PartitionOf(p.name).SetAt(v, idx...)
}
func (p *partView) DenseWindow(lo, hi []int64) ([]float64, []int64) {
	return p.ctx.PartitionOf(p.name).DenseWindow(lo, hi)
}

// servedView adapts parameter-server reads; writes must go through a
// DistArray Buffer (dependence analysis would have rejected the loop
// otherwise).
type servedView struct {
	ctx  blockCtx
	name string
	dims []int64
}

func (s *servedView) Dims() []int64 { return s.dims }
func (s *servedView) At(idx ...int64) float64 {
	return s.ctx.ServedRead(s.name, flatten(s.dims, idx))
}
func (s *servedView) SetAt(v float64, idx ...int64) {
	// Direct writes to a served array are legal only when the plan
	// guarantees this worker is the sole writer (ordered wavefront
	// execution); they ship as absolute last-write-wins updates.
	s.ctx.ServedSet(s.name, flatten(s.dims, idx), v)
}

// ctxBuffer adapts DistArray Buffer writes to served-array update
// batches.
type ctxBuffer struct {
	ctx    blockCtx
	target string
	dims   []int64
}

func (b *ctxBuffer) Put(update float64, idx ...int64) bool {
	b.ctx.ServedUpdate(b.target, flatten(b.dims, idx), update)
	return false
}

// dimsOnly is an ArrayAccess exposing only extents — used by the
// prefetch recorder, whose sliced program never actually reads.
type dimsOnly []int64

func (d dimsOnly) Dims() []int64 { return d }
func (d dimsOnly) At(...int64) float64 {
	panic("dslkernel: prefetch slice attempted a real array read")
}
func (d dimsOnly) SetAt(float64, ...int64) {
	panic("dslkernel: prefetch slice attempted an array write")
}

func flatten(dims, idx []int64) int64 {
	var off, stride int64 = 0, 1
	for i := range dims {
		off += idx[i] * stride
		stride *= dims[i]
	}
	return off
}
