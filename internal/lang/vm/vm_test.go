package vm

import (
	"math"
	"math/rand"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

const mfSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
end
`

func compileMF(t testing.TB) *Prog {
	t.Helper()
	loop, err := lang.Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays: map[string][]int64{
			"ratings": {100, 100}, "W": {16, 100}, "H": {16, 100},
		},
		Globals: []string{"step_size"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func bindMF(t testing.TB, p *Prog) (*Kernel, *dsm.DistArray, *dsm.DistArray) {
	t.Helper()
	k := p.NewKernel()
	w := dsm.NewDense("W", 16, 100)
	h := dsm.NewDense("H", 16, 100)
	w.FillRandn(rand.New(rand.NewSource(1)), 0.1)
	h.FillRandn(rand.New(rand.NewSource(2)), 0.1)
	for name, a := range map[string]*dsm.DistArray{
		"ratings": dsm.NewSparse("ratings", 100, 100), "W": w, "H": h,
	} {
		if err := k.BindArray(name, a); err != nil {
			t.Fatal(err)
		}
	}
	if !k.SetGlobal("step_size", 0.01) {
		t.Fatal("step_size not a global")
	}
	return k, w, h
}

// TestVMZeroAllocs: the acceptance criterion — a steady-state VM MF SGD
// iteration performs zero allocations, both per-iteration and batched.
func TestVMZeroAllocs(t *testing.T) {
	p := compileMF(t)
	k, _, _ := bindMF(t, p)
	key := []int64{3, 7}
	for i := 0; i < 4; i++ {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("vm MF iteration allocates %v times, want 0", allocs)
	}

	keys := [][]int64{{3, 7}, {4, 9}, {1, 2}, {3, 7}}
	vals := []float64{1.5, 2, 0.5, 1.5}
	allocs = testing.AllocsPerRun(200, func() {
		if n, err := k.RunBlock(keys, vals, nil); err != nil || n != len(keys) {
			t.Fatalf("RunBlock: n=%d err=%v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("vm MF block allocates %v times, want 0", allocs)
	}
}

// TestVMSpeedupOverInterp: the VM's fused dense paths must beat the
// reference interpreter by a wide margin on the MF body, measured live
// in the same process. The floor is 12x: the VM once had to beat the
// closure backend by 1.3x here, and that backend ran MF 9.2-9.4x faster
// than the interpreter, so 12x is at least as strict. The committed
// BENCH_vm.json gate asks for >= 25x on two of three kernels.
func TestVMSpeedupOverInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	loop, err := lang.Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	vk, w, h := bindMF(t, compileMF(t))
	m := lang.NewMachine()
	m.Arrays["ratings"] = dsm.NewSparse("ratings", 100, 100)
	m.Arrays["W"] = w.Clone()
	m.Arrays["H"] = h.Clone()
	m.Globals["step_size"] = float64(0.01)
	key := []int64{3, 7}

	vmRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := vk.RunIteration(key, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	inRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.RunIteration(loop, key, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	vn, in := vmRes.NsPerOp(), inRes.NsPerOp()
	if vn <= 0 || in <= 0 {
		t.Skipf("timer resolution too coarse: vm %d ns, interp %d ns", vn, in)
	}
	if float64(in) < 12*float64(vn) {
		t.Fatalf("vm backend is not >=12x faster: interp %d ns/iter, vm %d ns/iter", in, vn)
	}
	t.Logf("interp %d ns/iter, vm %d ns/iter (%.1fx)", in, vn, float64(in)/float64(vn))
}

// TestRunBlockStopsAtFault: a mid-block fault reports the number of
// fully completed iterations and leaves their effects in place.
func TestRunBlockStopsAtFault(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    A[key[1], 1] = v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays: map[string][]int64{"data": {4, 4}, "A": {4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	a := dsm.NewDense("A", 4, 4)
	if err := k.BindArray("A", a); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 4, 4)); err != nil {
		t.Fatal(err)
	}
	// Third key is out of bounds: iteration 2 panics after 0 and 1 land.
	keys := [][]int64{{0, 0}, {1, 0}, {9, 0}, {2, 0}}
	vals := []float64{10, 20, 30, 40}
	// The panic unwinds through RunBlock, so progress is observed via
	// the onIter callback rather than the (lost) return value.
	var done int
	var panicked bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		_, _ = k.RunBlock(keys, vals, func(i int) { done = i + 1 })
	}()
	if !panicked {
		t.Fatal("expected the out-of-bounds write to panic")
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if a.At(0, 0) != 10 || a.At(1, 0) != 20 {
		t.Fatalf("completed iterations not applied: %v %v", a.At(0, 0), a.At(1, 0))
	}
}

// TestRunBlockOnIter: the per-iteration callback observes accumulator
// state after each iteration, in order.
func TestRunBlockOnIter(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    acc += v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	if err := k.BindArray("data", dsm.NewDense("data", 4)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	slot := k.GlobalSlot("acc")
	keys := [][]int64{{0}, {1}, {2}}
	vals := []float64{1, 2, 4}
	var seen []float64
	done, err := k.RunBlock(keys, vals, func(i int) {
		seen = append(seen, k.GlobalAt(slot))
	})
	if err != nil || done != 3 {
		t.Fatalf("done=%d err=%v", done, err)
	}
	want := []float64{1, 3, 7}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("after iteration %d acc=%v, want %v", i, seen[i], want[i])
		}
	}
}

// TestVMRowViewIsZeroCopy: a consume borrow of a dense full-first-dim
// range must be a live view of the array's storage, not a copy.
func TestVMRowViewIsZeroCopy(t *testing.T) {
	src := "for (key, v) in data\n    s = dot(W[:, 1], W[:, 1])\n    acc += s\nend\n"
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {2}, "W": {8, 4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lowered site must use the row-view opcode, not materialize.
	views := 0
	for _, in := range p.code {
		if in.op == opRowViewV {
			views++
		}
	}
	if views != 2 {
		t.Fatalf("expected 2 opRowViewV sites, found %d", views)
	}
	k := p.NewKernel()
	w := dsm.NewDense("W", 8, 4)
	w.FillRandn(rand.New(rand.NewSource(3)), 1)
	if err := k.BindArray("W", w); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 2)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	if err := k.RunIteration([]int64{0}, 0); err != nil {
		t.Fatal(err)
	}
	// DSL subscripts are 1-based: W[:, 1] is the 0-based column 0.
	var want float64
	col := w.Vec(0)
	for _, e := range col {
		want += e * e
	}
	got, _ := k.Global("acc")
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("acc = %v, want %v", got, want)
	}
}

// TestVMSparseFallback: arrays without dense backing run through the
// interface paths and still match the interpreter (covered broadly by
// the differential tests; this pins the explicit sparse binding).
func TestVMSparseFallback(t *testing.T) {
	src := "for (key, v) in data\n    S[key[1], 1] += 2\n    x = S[key[1], 1]\n    acc += x\nend\n"
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {3}, "S": {3, 3}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	s := dsm.NewSparse("S", 3, 3)
	if err := k.BindArray("S", s); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 3)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	for i := int64(0); i < 3; i++ {
		if err := k.RunIteration([]int64{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := k.Global("acc"); got != 6 {
		t.Fatalf("acc = %v, want 6", got)
	}
	if s.At(2, 0) != 2 {
		t.Fatalf("S[2,0] = %v, want 2", s.At(2, 0))
	}
}

// TestVMRunLoop: RunLoop walks the bound iteration space like the
// interpreter, stopping early on error when the space supports it.
func TestVMRunLoop(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    acc += v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	d := dsm.NewDense("data", 4)
	d.MapIndex(func(idx []int64, _ float64) float64 { return float64(idx[0] + 1) })
	if err := k.BindArray("data", d); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	if err := k.RunLoop(); err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Global("acc"); got != 10 {
		t.Fatalf("acc = %v, want 10", got)
	}

	// x is defined only when v > 0; the iterator yields v = 0, so the
	// read faults on the first iteration and the walk must stop there.
	loop, err = lang.Parse("for (key, v) in data\n    if v > 0\n        x = 1\n    end\n    y = x\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err = Compile(loop, &lang.CompileEnv{Arrays: map[string][]int64{"data": {100}}})
	if err != nil {
		t.Fatal(err)
	}
	k = p.NewKernel()
	stopper := &stoppingIter{n: 100}
	if err := k.BindArray("data", stopper); err != nil {
		t.Fatal(err)
	}
	if err := k.RunLoop(); err == nil {
		t.Fatal("expected an error")
	}
	if stopper.visits != 1 {
		t.Fatalf("early-terminating walk visited %d elements, want 1", stopper.visits)
	}
}

// stoppingIter is an iteration space that counts visits and supports
// early termination (lang.IterableUntil).
type stoppingIter struct{ n, visits int }

func (c *stoppingIter) Dims() []int64           { return []int64{int64(c.n)} }
func (c *stoppingIter) At(...int64) float64     { return 0 }
func (c *stoppingIter) SetAt(float64, ...int64) {}
func (c *stoppingIter) ForEach(f func(idx []int64, v float64)) {
	c.ForEachUntil(func(idx []int64, v float64) bool { f(idx, v); return true })
}
func (c *stoppingIter) ForEachUntil(f func(idx []int64, v float64) bool) {
	for i := 0; i < c.n; i++ {
		c.visits++
		if !f([]int64{int64(i)}, 0) {
			return
		}
	}
}

// badWindow is a DenseAccess reporting a fixed, possibly invalid,
// window over real storage.
type badWindow struct {
	*dsm.DistArray
	lo, hi []int64
}

func (b badWindow) DenseWindow(lo, hi []int64) ([]float64, []int64) {
	copy(lo, b.lo)
	copy(hi, b.hi)
	return b.DistArray.DenseData()
}

// TestVMWindowBinding: a partition view binds its storage with the
// partition's window, point sites mirror its origin and extent, row
// views borrow the partition's storage in place, Rebind follows a
// replaced partition, and windows that are empty or reach outside the
// array bind nothing.
func TestVMWindowBinding(t *testing.T) {
	p := compileMF(t)
	k, w, h := bindMF(t, p)
	wRef, hRef := w.Clone(), h.Clone()
	wPart, hPart := w.ExtractRange(1, 20, 60), h.ExtractRange(1, 30, 70)
	for name, part := range map[string]*dsm.Partition{"W": wPart, "H": hPart} {
		if err := k.BindArray(name, windowView{part, []int64{16, 100}}); err != nil {
			t.Fatal(err)
		}
	}
	wi := p.arrayIx["W"]
	data, _ := wPart.Local.DenseData()
	if &k.dense[wi][0] != &data[0] || k.wlo[wi][1] != 20 || k.whi[wi][1] != 60 || k.whi[wi][0] != 16 {
		t.Fatalf("W window bound as lo=%v hi=%v", k.wlo[wi], k.whi[wi])
	}

	// The same iteration over whole arrays and over the windows agrees
	// bitwise, and the windowed run writes the partitions in place.
	ref := p.NewKernel()
	ref.BindArray("W", wRef)
	ref.BindArray("H", hRef)
	ref.BindArray("ratings", dsm.NewSparse("ratings", 100, 100))
	ref.SetGlobal("step_size", 0.01)
	key := []int64{25, 35}
	if err := ref.RunIteration(key, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := k.RunIteration(key, 1.5); err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < 16; d++ {
		if math.Float64bits(wPart.At(d, 25)) != math.Float64bits(wRef.At(d, 25)) ||
			math.Float64bits(hPart.At(d, 35)) != math.Float64bits(hRef.At(d, 35)) {
			t.Fatalf("windowed row %d differs from the whole-array run", d)
		}
	}
	// Unbind drops the storage; the kernel keeps running, through the
	// views' At/SetAt, until the next Rebind.
	k.Unbind()
	for j := range k.racc {
		if k.dense[wi] != nil || k.racc[j].fast {
			t.Fatal("Unbind left a dense binding")
		}
	}
	for r, v := range k.vr {
		if v != nil {
			t.Fatalf("Unbind left vector register %d borrowing storage", r)
		}
	}
	if err := ref.RunIteration(key, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := k.RunIteration(key, 1.5); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wPart.At(3, 25)) != math.Float64bits(wRef.At(3, 25)) {
		t.Fatal("unbound run differs from the whole-array run")
	}
	k.Rebind()
	if &k.dense[wi][0] != &data[0] {
		t.Fatal("Rebind after Unbind did not restore the window")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("windowed MF iteration allocates %v times, want 0", allocs)
	}

	// A replaced partition is picked up by Rebind, without allocating.
	view := &windowView{wPart, []int64{16, 100}}
	k.BindArray("W", view)
	next := w.ExtractRange(1, 60, 100)
	view.Partition = next
	if allocs := testing.AllocsPerRun(10, k.Rebind); allocs != 0 {
		t.Fatalf("Rebind allocates %v times, want 0", allocs)
	}
	nextData, _ := next.Local.DenseData()
	if &k.dense[wi][0] != &nextData[0] || k.wlo[wi][1] != 60 {
		t.Fatalf("Rebind kept the replaced window lo=%v", k.wlo[wi])
	}

	for _, bad := range []badWindow{
		{w, []int64{0, 5}, []int64{16, 5}},   // empty
		{w, []int64{0, -1}, []int64{16, 10}}, // below the array
		{w, []int64{0, 0}, []int64{17, 100}}, // beyond the array
	} {
		k.BindArray("W", bad)
		if k.dense[wi] != nil {
			t.Fatalf("window lo=%v hi=%v was bound", bad.lo, bad.hi)
		}
		for j, acc := range p.accs {
			if int(acc.ai) == wi && k.racc[j].fast {
				t.Fatalf("window lo=%v hi=%v: point site %d is on the fast path", bad.lo, bad.hi, j)
			}
		}
	}
}
