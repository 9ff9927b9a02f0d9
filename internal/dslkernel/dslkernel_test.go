package dslkernel

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/runtime"
)

// fakeCtx is an executor context reduced to what a DSL kernel sees:
// partitions in global coordinates, served arrays whose updates fold in
// at the end of each block, accumulators, and the block clock.
type fakeCtx struct {
	parts   map[string]*dsm.Partition
	served  map[string]*dsm.DistArray
	pending []servedWrite
	accums  map[string]float64
	epoch   int64
	step    int
}

type servedWrite struct {
	array    string
	off      int64
	v        float64
	absolute bool
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{
		parts:  map[string]*dsm.Partition{},
		served: map[string]*dsm.DistArray{},
		accums: map[string]float64{},
	}
}

func (c *fakeCtx) PartitionOf(array string) *dsm.Partition { return c.parts[array] }
func (c *fakeCtx) HasPartition(array string) bool          { return c.parts[array] != nil }
func (c *fakeCtx) ServedRead(array string, off int64) float64 {
	a := c.served[array]
	return a.At(a.Unflatten(off)...)
}
func (c *fakeCtx) ServedUpdate(array string, off int64, delta float64) {
	c.pending = append(c.pending, servedWrite{array, off, delta, false})
}
func (c *fakeCtx) ServedSet(array string, off int64, v float64) {
	c.pending = append(c.pending, servedWrite{array, off, v, true})
}
func (c *fakeCtx) AccumAdd(name string, v float64) { c.accums[name] += v }
func (c *fakeCtx) ExecutorID() int                 { return 0 }
func (c *fakeCtx) BlockPass() int                  { return 0 }
func (c *fakeCtx) BlockStep() int                  { return c.step }
func (c *fakeCtx) BlockEpoch() int64               { return c.epoch }

// runBlock advances the block clock, runs keys through the kernel —
// batched when the backend has a block form and batched is set — and
// folds the block's served writes. It returns the kernel's panic
// message, if any.
func (c *fakeCtx) runBlock(t *testing.T, lk *loopKernel, keys [][]int64, vals []float64, batched bool) (panicMsg string) {
	t.Helper()
	c.epoch++
	c.step++
	defer c.foldServed()
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	if batched && lk.vp != nil {
		if _, err := lk.block(c, keys, vals); err != nil {
			t.Fatalf("block kernel: %v", err)
		}
		return ""
	}
	for i, k := range keys {
		lk.iter(c, k, vals[i])
	}
	return ""
}

func (c *fakeCtx) foldServed() {
	for _, w := range c.pending {
		a := c.served[w.array]
		idx := a.Unflatten(w.off)
		if w.absolute {
			a.SetAt(w.v, idx...)
		} else {
			a.AddAt(w.v, idx...)
		}
	}
	c.pending = c.pending[:0]
}

// exampleDef builds the DefineLoop message for a shipped example
// program, pinned to one backend.
func exampleDef(t *testing.T, file, backend string, globals map[string]float64) *runtime.Msg {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", file))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	loopSrc := string(src)[strings.Index(string(src), "\n---\n")+5:]
	def := &runtime.Msg{
		LoopName:   file,
		LoopSrc:    loopSrc,
		ArrayDims:  prog.Env.Arrays,
		Buffers:    prog.Env.Buffers,
		AccumNames: lang.Accumulators(prog.Loop),
		Backend:    backend,
	}
	for _, n := range prog.Globals {
		def.GlobalNames = append(def.GlobalNames, n)
		def.GlobalVals = append(def.GlobalVals, globals[n])
	}
	return def
}

func mustKernel(t *testing.T, def *runtime.Msg) *loopKernel {
	t.Helper()
	lk, err := newLoopKernel(def)
	if err != nil {
		t.Fatal(err)
	}
	if (def.Backend == "vm") != (lk.vp != nil) {
		t.Fatalf("backend %q: vm program present = %v", def.Backend, lk.vp != nil)
	}
	return lk
}

// cut returns a seeded non-empty range [lo, hi) of [0, n).
func cut(rng *rand.Rand, n int64) (lo, hi int64) {
	lo = rng.Int63n(n)
	return lo, lo + 1 + rng.Int63n(n-lo)
}

// samples draws n keys uniformly from the box [lo0,hi0) x [lo1,hi1).
func samples(rng *rand.Rand, n int, lo0, hi0, lo1, hi1 int64) ([][]int64, []float64) {
	keys := make([][]int64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = []int64{lo0 + rng.Int63n(hi0-lo0), lo1 + rng.Int63n(hi1-lo1)}
		vals[i] = 1 + 4*rng.Float64()
	}
	return keys, vals
}

func requireSameState(t *testing.T, label string, ref, got *fakeCtx) {
	t.Helper()
	for name, rp := range ref.parts {
		gp := got.parts[name]
		if rp.Lo != gp.Lo || rp.Hi != gp.Hi {
			t.Fatalf("%s: %s partition [%d,%d) vs [%d,%d)", label, name, rp.Lo, rp.Hi, gp.Lo, gp.Hi)
		}
		requireSameArray(t, label+": partition "+name, rp.Local, gp.Local)
	}
	for name, ra := range ref.served {
		requireSameArray(t, label+": served "+name, ra, got.served[name])
	}
	for name, v := range ref.accums {
		if w := got.accums[name]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: accumulator %s: interp %v, vm %v", label, name, v, w)
		}
	}
}

func requireSameArray(t *testing.T, label string, ref, got *dsm.DistArray) {
	t.Helper()
	if ref.Len() != got.Len() {
		t.Fatalf("%s: %d stored elements vs %d", label, ref.Len(), got.Len())
	}
	ref.ForEach(func(idx []int64, v float64) {
		if w := got.At(idx...); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s%v: interp %v, vm %v", label, idx, v, w)
		}
	})
}

// mfCtx places MF's W and H as partitions along their second (row /
// column) dimension, cut from arrays filled by seed.
func mfCtx(seed, wLo, wHi, hLo, hHi int64) *fakeCtx {
	rng := rand.New(rand.NewSource(seed))
	w := dsm.NewDense("W", 8, 80)
	h := dsm.NewDense("H", 8, 60)
	w.FillRandn(rng, 0.3)
	h.FillRandn(rng, 0.3)
	c := newFakeCtx()
	c.parts["W"] = w.ExtractRange(1, wLo, wHi)
	c.parts["H"] = h.ExtractRange(1, hLo, hHi)
	return c
}

var mfGlobals = map[string]float64{"step_size": 0.05}

// TestVMOverPartitionWindowsMatchesInterp: the VM bound to executor
// partitions with random non-zero-origin windows is bitwise equal to
// the interpreter over the same partitions, per iteration and batched,
// for the MF and LDA example loops.
func TestVMOverPartitionWindowsMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		wLo, wHi := cut(rng, 80)
		hLo, hHi := cut(rng, 60)
		ref, got := mfCtx(int64(trial), wLo, wHi, hLo, hHi), mfCtx(int64(trial), wLo, wHi, hLo, hHi)
		interp := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "interp", mfGlobals))
		vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
		for b := 0; b < 3; b++ {
			keys, vals := samples(rng, 40, wLo, wHi, hLo, hHi)
			if msg := ref.runBlock(t, interp, keys, vals, false); msg != "" {
				t.Fatalf("interp panicked: %s", msg)
			}
			if msg := got.runBlock(t, vmk, keys, vals, b%2 == 0); msg != "" {
				t.Fatalf("vm panicked: %s", msg)
			}
		}
		requireSameState(t, fmt.Sprintf("mf trial %d W[%d,%d) H[%d,%d)", trial, wLo, wHi, hLo, hHi), ref, got)
	}

	ldaGlobals := map[string]float64{"K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8}
	ldaCtx := func(seed, dLo, dHi, wLo, wHi int64) *fakeCtx {
		r := rand.New(rand.NewSource(seed))
		counts := func(a *dsm.DistArray, lo, hi int) *dsm.DistArray {
			a.Map(func(float64) float64 { return float64(lo + r.Intn(hi-lo+1)) })
			return a
		}
		c := newFakeCtx()
		c.parts["z"] = counts(dsm.NewDense("z", 120, 80), 1, 6).ExtractRange(0, dLo, dHi)
		c.parts["doc_topic"] = counts(dsm.NewDense("doc_topic", 6, 120), 0, 5).ExtractRange(1, dLo, dHi)
		c.parts["word_topic"] = counts(dsm.NewDense("word_topic", 6, 80), 0, 5).ExtractRange(1, wLo, wHi)
		c.served["totals"] = counts(dsm.NewDense("totals", 6), 20, 40)
		return c
	}
	for trial := 0; trial < 8; trial++ {
		dLo, dHi := cut(rng, 120)
		wLo, wHi := cut(rng, 80)
		ref, got := ldaCtx(int64(trial), dLo, dHi, wLo, wHi), ldaCtx(int64(trial), dLo, dHi, wLo, wHi)
		interp := mustKernel(t, exampleDef(t, "lda_dsl/lda.orion", "interp", ldaGlobals))
		vmk := mustKernel(t, exampleDef(t, "lda_dsl/lda.orion", "vm", ldaGlobals))
		for b := 0; b < 3; b++ {
			keys, vals := samples(rng, 40, dLo, dHi, wLo, wHi)
			if msg := ref.runBlock(t, interp, keys, vals, false); msg != "" {
				t.Fatalf("interp panicked: %s", msg)
			}
			if msg := got.runBlock(t, vmk, keys, vals, b%2 == 1); msg != "" {
				t.Fatalf("vm panicked: %s", msg)
			}
		}
		requireSameState(t, fmt.Sprintf("lda trial %d docs[%d,%d) words[%d,%d)", trial, dLo, dHi, wLo, wHi), ref, got)
	}
}

// replace swaps array's partition for a fresh one — same contents in
// new storage, as a rotation or a recovery re-placement delivers it —
// and overwrites the replaced partition's storage with NaN, standing
// in for the buffer pool recycling it.
func (c *fakeCtx) replace(array string, next *dsm.Partition) {
	old := c.parts[array]
	c.parts[array] = next
	if data, _ := old.Local.DenseData(); data != nil {
		for i := range data {
			data[i] = math.NaN()
		}
	}
}

func clonePartition(p *dsm.Partition) *dsm.Partition {
	data, _ := p.Local.DenseData()
	local := dsm.NewDenseFrom(p.Array, append([]float64(nil), data...), p.Local.Dims()...)
	return &dsm.Partition{Array: p.Array, Dim: p.Dim, Lo: p.Lo, Hi: p.Hi, Local: local}
}

// TestPartitionSwapIsNeverReadStale: a partition replaced between two
// blocks — re-placed over the same range, or rotated to another one —
// and then poisoned with NaN is never read again: the VM rebinds its
// windows at every block boundary, on both the per-iteration and the
// batched entry.
func TestPartitionSwapIsNeverReadStale(t *testing.T) {
	for _, batched := range []bool{false, true} {
		ref, got := mfCtx(5, 10, 50, 12, 30), mfCtx(5, 10, 50, 12, 30)
		interp := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "interp", mfGlobals))
		vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
		rng := rand.New(rand.NewSource(9))
		run := func(hLo, hHi int64) {
			keys, vals := samples(rng, 30, 10, 50, hLo, hHi)
			if msg := ref.runBlock(t, interp, keys, vals, false); msg != "" {
				t.Fatalf("interp panicked: %s", msg)
			}
			if msg := got.runBlock(t, vmk, keys, vals, batched); msg != "" {
				t.Fatalf("vm panicked: %s", msg)
			}
		}
		run(12, 30)
		for _, c := range []*fakeCtx{ref, got} {
			c.replace("H", clonePartition(c.parts["H"]))
			c.replace("W", clonePartition(c.parts["W"]))
		}
		run(12, 30)
		// Rotation: the next block holds a different column range.
		h := dsm.NewDense("H", 8, 60)
		h.FillRandn(rand.New(rand.NewSource(77)), 0.3)
		for _, c := range []*fakeCtx{ref, got} {
			c.replace("H", h.ExtractRange(1, 30, 55))
		}
		run(30, 55)
		requireSameState(t, fmt.Sprintf("batched=%v", batched), ref, got)
		for _, p := range got.parts {
			data, _ := p.Local.DenseData()
			for _, v := range data {
				if math.IsNaN(v) {
					t.Fatalf("batched=%v: NaN reached live partition %s", batched, p.Array)
				}
			}
		}
	}
}

// TestRebindDoesNotAllocate: the per-block rebind over partition views
// reuses the kernel's window buffers.
func TestRebindDoesNotAllocate(t *testing.T) {
	c := mfCtx(1, 0, 80, 0, 60)
	vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
	keys, vals := samples(rand.New(rand.NewSource(2)), 4, 0, 80, 0, 60)
	c.runBlock(t, vmk, keys, vals, true)
	if allocs := testing.AllocsPerRun(100, func() { vmk.vs.k.Rebind() }); allocs != 0 {
		t.Fatalf("Rebind allocates %v times per call, want 0", allocs)
	}
}

// panicOf runs f and returns its panic message ("" when it returns).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestOutOfWindowFaultMatchesGenericPath: a key outside the held
// partition faults with exactly the message of the generic
// partition-access path — the interpreter's, and Partition.At's own.
func TestOutOfWindowFaultMatchesGenericPath(t *testing.T) {
	for _, j := range []int64{11, 20, 21, 59} {
		for _, batched := range []bool{false, true} {
			ref, got := mfCtx(3, 0, 80, 12, 20), mfCtx(3, 0, 80, 12, 20)
			interp := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "interp", mfGlobals))
			vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
			keys := [][]int64{{4, 15}, {7, j}}
			vals := []float64{1, 2}
			want := panicOf(func() { ref.parts["H"].At(0, j) })
			if want == "" {
				t.Fatalf("column %d: generic path did not fault", j)
			}
			if msg := ref.runBlock(t, interp, keys, vals, false); msg != want {
				t.Fatalf("column %d: interp faulted with %q, want %q", j, msg, want)
			}
			if msg := got.runBlock(t, vmk, keys, vals, batched); msg != want {
				t.Fatalf("column %d batched=%v: vm faulted with %q, want %q", j, batched, msg, want)
			}
			requireSameState(t, fmt.Sprintf("column %d", j), ref, got)
		}
	}
}

// TestSparseAndDegeneratePartitionsFallBack: partitions with no dense
// window — sparse storage, or the degenerate Hi == Lo range whose local
// array keeps one placeholder slot — run through the reference
// accessors and still match the interpreter bitwise.
func TestSparseAndDegeneratePartitionsFallBack(t *testing.T) {
	build := func() *fakeCtx {
		c := mfCtx(4, 0, 80, 0, 60)
		ws := dsm.NewSparse("W", 8, 80)
		c.parts["W"].WriteBack(ws)
		c.parts["W"] = ws.ExtractRange(1, 20, 40)
		c.parts["H"] = c.parts["H"].Local.ExtractRange(1, 25, 25)
		c.parts["H"].Local.Map(func(float64) float64 { return 0.25 })
		return c
	}
	ref, got := build(), build()
	interp := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "interp", mfGlobals))
	vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
	keys, vals := samples(rand.New(rand.NewSource(6)), 20, 20, 40, 25, 26)
	lo, hi := make([]int64, 2), make([]int64, 2)
	for _, name := range []string{"W", "H"} {
		if data, _ := got.parts[name].DenseWindow(lo, hi); data != nil {
			t.Fatalf("%s partition reports a dense window", name)
		}
	}
	for b := 0; b < 2; b++ {
		if msg := ref.runBlock(t, interp, keys, vals, false); msg != "" {
			t.Fatalf("interp panicked: %s", msg)
		}
		if msg := got.runBlock(t, vmk, keys, vals, b == 1); msg != "" {
			t.Fatalf("vm panicked: %s", msg)
		}
	}
	requireSameState(t, "sparse W, degenerate H", ref, got)
}

// TestFinishedCallReleasesPartitions: once a kernel call returns, the
// kernel holds no reference to the storage of the partitions it ran
// over. Executors keep every loop's kernel set for their lifetime and
// each ParallelFor defines a new loop, so a kernel that pinned its last
// partitions would grow an executor's memory by a set of partitions per
// pass.
func TestFinishedCallReleasesPartitions(t *testing.T) {
	for _, batched := range []bool{false, true} {
		vmk := mustKernel(t, exampleDef(t, "quickstart/mf.orion", "vm", mfGlobals))
		freed := make(chan string, 2)
		func() {
			c := mfCtx(1, 0, 80, 0, 60)
			for name, p := range c.parts {
				name := name
				data, _ := p.Local.DenseData()
				goruntime.SetFinalizer(&data[0], func(*float64) { freed <- name })
			}
			keys, vals := samples(rand.New(rand.NewSource(2)), 8, 0, 80, 0, 60)
			if msg := c.runBlock(t, vmk, keys, vals, batched); msg != "" {
				t.Fatalf("vm panicked: %s", msg)
			}
			// The executor replaces the partitions; only the kernel could
			// still reach the old storage.
			c.parts = map[string]*dsm.Partition{}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; n < 2; {
			goruntime.GC()
			select {
			case <-freed:
				n++
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("batched=%v: only %d of 2 partitions freed; the kernel still reaches the rest", batched, n)
				}
			}
		}
		goruntime.KeepAlive(vmk)
	}
}

// TestUnknownBackendRefused: a DefineLoop pinned to a backend outside
// "", "vm", and "interp" is refused before anything is compiled.
func TestUnknownBackendRefused(t *testing.T) {
	for _, backend := range []string{"compiled", "jit"} {
		def := exampleDef(t, "quickstart/mf.orion", backend, mfGlobals)
		if _, err := newLoopKernel(def); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("backend %q: err = %v; want unknown backend", backend, err)
		}
	}
}
