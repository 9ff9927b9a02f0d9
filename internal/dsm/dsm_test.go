package dsm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	a := NewDense("W", 4, 6)
	a.SetAt(3.5, 2, 5)
	if got := a.At(2, 5); got != 3.5 {
		t.Fatalf("At = %v, want 3.5", got)
	}
	a.AddAt(1.5, 2, 5)
	if got := a.At(2, 5); got != 5 {
		t.Fatalf("AddAt result = %v, want 5", got)
	}
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
}

func TestSparseBasics(t *testing.T) {
	a := NewSparse("Z", 100, 100)
	a.SetAt(1, 3, 7)
	a.SetAt(2, 99, 0)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if a.At(3, 7) != 1 || a.At(0, 0) != 0 {
		t.Fatal("sparse reads wrong")
	}
	a.SetAt(0, 3, 7) // writing zero deletes
	if a.Len() != 1 {
		t.Fatalf("Len after zero-write = %d, want 1", a.Len())
	}
}

func TestVecIsContiguousView(t *testing.T) {
	a := NewDense("W", 3, 5)
	v := a.Vec(2) // W[:, 2]
	v[0], v[1], v[2] = 10, 20, 30
	if a.At(0, 2) != 10 || a.At(1, 2) != 20 || a.At(2, 2) != 30 {
		t.Fatal("Vec must be a live view into dense storage")
	}
}

func TestVecSparseCopies(t *testing.T) {
	a := NewSparse("S", 3, 5)
	a.SetAt(7, 1, 2)
	v := a.Vec(2)
	if v[1] != 7 || v[0] != 0 {
		t.Fatalf("sparse Vec = %v", v)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	a := NewDense("A", 3, 4, 5)
	f := func(i, j, k uint8) bool {
		idx := []int64{int64(i) % 3, int64(j) % 4, int64(k) % 5}
		off := a.Flatten(idx...)
		back := a.Unflatten(off)
		return back[0] == idx[0] && back[1] == idx[1] && back[2] == idx[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachDeterministicOrder(t *testing.T) {
	a := NewSparse("Z", 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		a.SetAt(rng.Float64()+0.1, int64(rng.Intn(10)), int64(rng.Intn(10)))
	}
	var first, second []int64
	a.ForEach(func(idx []int64, _ float64) { first = append(first, a.Flatten(idx...)) })
	a.ForEach(func(idx []int64, _ float64) { second = append(second, a.Flatten(idx...)) })
	if len(first) != len(second) {
		t.Fatal("lengths differ")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("ForEach order is not deterministic")
		}
	}
}

func TestMapAndHistogram(t *testing.T) {
	a := NewSparse("Z", 4, 4)
	a.SetAt(1, 0, 0)
	a.SetAt(2, 0, 1)
	a.SetAt(3, 2, 1)
	a.Map(func(v float64) float64 { return v * 2 })
	if a.At(2, 1) != 6 {
		t.Fatalf("Map broken: %v", a.At(2, 1))
	}
	h := a.Histogram(0)
	if h[0] != 2 || h[2] != 1 || h[1] != 0 {
		t.Fatalf("Histogram(0) = %v", h)
	}
	h1 := a.Histogram(1)
	if h1[1] != 2 || h1[0] != 1 {
		t.Fatalf("Histogram(1) = %v", h1)
	}
}

func TestGroupBy(t *testing.T) {
	a := NewSparse("Z", 4, 4)
	a.SetAt(1, 0, 3)
	a.SetAt(1, 2, 3)
	a.SetAt(1, 2, 0)
	g := a.GroupBy(1)
	if len(g[3]) != 2 || len(g[0]) != 1 {
		t.Fatalf("GroupBy = %v", g)
	}
}

func TestPermuteAndRandomize(t *testing.T) {
	a := NewSparse("Z", 3, 2)
	a.SetAt(5, 0, 0)
	a.SetAt(7, 2, 1)
	perm := []int64{2, 0, 1}
	b := a.Permute(0, perm)
	if b.At(2, 0) != 5 || b.At(1, 1) != 7 {
		t.Fatal("Permute broken")
	}
	rng := rand.New(rand.NewSource(9))
	c, p := a.Randomize(0, rng)
	// Each original entry appears at its permuted coordinate.
	if c.At(p[0], 0) != 5 || c.At(p[2], 1) != 7 {
		t.Fatal("Randomize broken")
	}
	if c.Len() != a.Len() {
		t.Fatal("Randomize changed entry count")
	}
}

func TestPartitionRoundTripDense(t *testing.T) {
	a := NewDense("W", 3, 10)
	rng := rand.New(rand.NewSource(2))
	a.FillRandn(rng, 1)
	orig := a.Clone()
	parts := a.EqualRangePartitions(1, 4)
	// Zero the array, write every partition back, expect the original.
	for i := range a.dense {
		a.dense[i] = 0
	}
	for _, p := range parts {
		p.WriteBack(a)
	}
	for i := range a.dense {
		if a.dense[i] != orig.dense[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestPartitionRoundTripSparse(t *testing.T) {
	a := NewSparse("Z", 9, 7)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		a.SetAt(rng.Float64()+0.5, int64(rng.Intn(9)), int64(rng.Intn(7)))
	}
	orig := a.Clone()
	parts := a.EqualRangePartitions(0, 3)
	b := NewSparse("Z", 9, 7)
	for _, p := range parts {
		p.WriteBack(b)
	}
	if b.Len() != orig.Len() {
		t.Fatalf("entry count %d != %d", b.Len(), orig.Len())
	}
	orig.ForEach(func(idx []int64, v float64) {
		if b.At(idx...) != v {
			t.Fatalf("mismatch at %v", idx)
		}
	})
}

func TestPartitionGlobalCoords(t *testing.T) {
	a := NewDense("W", 2, 10)
	a.SetAt(42, 1, 7)
	parts := a.EqualRangePartitions(1, 2)
	p := parts[1] // covers columns 5..9
	if !p.Contains(7) || p.Contains(3) {
		t.Fatal("Contains broken")
	}
	if got := p.At(1, 7); got != 42 {
		t.Fatalf("global At = %v, want 42", got)
	}
	p.SetAt(43, 1, 7)
	p.WriteBack(a)
	if a.At(1, 7) != 43 {
		t.Fatal("global SetAt + WriteBack broken")
	}
}

// TestPartitionAccessAllocFree: global-coordinate point access rebases
// into the local array without copying the index, and leaves the
// caller's index untouched.
func TestPartitionAccessAllocFree(t *testing.T) {
	for _, a := range []*DistArray{NewDense("W", 3, 10), NewSparse("S", 3, 10)} {
		p := a.ExtractRange(1, 4, 9)
		idx := []int64{2, 6}
		allocs := testing.AllocsPerRun(100, func() {
			p.SetAt(p.At(idx...)+1, idx...)
		})
		if allocs != 0 {
			t.Fatalf("%s: partition At+SetAt allocates %v times, want 0", a.Name(), allocs)
		}
		if idx[0] != 2 || idx[1] != 6 {
			t.Fatalf("%s: caller's index mutated to %v", a.Name(), idx)
		}
		if got := p.Local.At(2, 2); got != 101 {
			t.Fatalf("%s: local element = %v, want 101", a.Name(), got)
		}
	}
}

// TestPartitionOutOfWindowPanics: a coordinate outside the partition's
// range panics with the local array's bounds message for the rebased
// coordinate.
func TestPartitionOutOfWindowPanics(t *testing.T) {
	p := NewDense("W", 2, 10).ExtractRange(1, 5, 8)
	for _, tc := range []struct {
		col  int64
		want string
	}{
		{4, "dsm: W: index -1 out of bounds [0,3) at dim 1"},
		{8, "dsm: W: index 3 out of bounds [0,3) at dim 1"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("At(1, %d) panicked with %v, want %q", tc.col, r, tc.want)
				}
			}()
			p.At(1, tc.col)
		}()
	}
}

// TestDenseWindow: a whole array is the zero-origin window; a partition
// reports its range along its dimension; sparse and degenerate
// partitions have no dense window.
func TestDenseWindow(t *testing.T) {
	a := NewDense("W", 2, 10)
	lo, hi := make([]int64, 2), make([]int64, 2)
	if data, stride := a.DenseWindow(lo, hi); len(data) != 20 || stride[1] != 2 ||
		lo[0] != 0 || lo[1] != 0 || hi[0] != 2 || hi[1] != 10 {
		t.Fatalf("array window: len=%d stride=%v lo=%v hi=%v", len(data), stride, lo, hi)
	}
	p := a.ExtractRange(1, 3, 7)
	if data, _ := p.DenseWindow(lo, hi); len(data) != 8 || lo[1] != 3 || hi[1] != 7 || hi[0] != 2 {
		t.Fatalf("partition window: len=%d lo=%v hi=%v", len(data), lo, hi)
	}
	if data, _ := a.ExtractRange(1, 4, 4).DenseWindow(lo, hi); data != nil {
		t.Fatal("degenerate partition reports a dense window")
	}
	if data, _ := NewSparse("S", 2, 10).ExtractRange(1, 3, 7).DenseWindow(lo, hi); data != nil {
		t.Fatal("sparse partition reports a dense window")
	}
	var none *Partition
	if data, _ := none.DenseWindow(lo, hi); data != nil {
		t.Fatal("nil partition reports a dense window")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	a := NewSparse("Z", 5, 5)
	a.SetAt(1.25, 4, 4)
	a.SetAt(-2, 0, 3)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArray(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "Z" || b.At(4, 4) != 1.25 || b.At(0, 3) != -2 {
		t.Fatal("array serialization round trip failed")
	}

	d := NewDense("W", 2, 3)
	d.SetAt(9, 1, 2)
	p := d.ExtractRange(1, 1, 3)
	pdata, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodePartition(pdata)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lo != 1 || p2.Hi != 3 || p2.At(1, 2) != 9 {
		t.Fatal("partition serialization round trip failed")
	}
}

func TestBufferFlushAppliesUDFOncePerElement(t *testing.T) {
	a := NewDense("w", 10)
	a.SetAt(1, 3)
	calls := 0
	b := NewBuffer(a, func(cur, u float64) float64 {
		calls++
		return cur + 2*u
	})
	b.Put(1, 3)
	b.Put(2, 3) // combines with previous: delta 3
	b.Put(5, 7)
	n := b.Flush(a)
	if n != 2 || calls != 2 {
		t.Fatalf("flush applied %d elements with %d UDF calls, want 2/2", n, calls)
	}
	if a.At(3) != 1+2*3 {
		t.Fatalf("a[3] = %v, want 7", a.At(3))
	}
	if a.At(7) != 2*5 {
		t.Fatalf("a[7] = %v, want 10", a.At(7))
	}
	if b.Len() != 0 || b.Writes() != 0 {
		t.Fatal("buffer not cleared after flush")
	}
}

func TestBufferMaxBuffered(t *testing.T) {
	a := NewDense("w", 10)
	b := NewBuffer(a, nil)
	b.MaxBuffered = 2
	if b.Put(1, 0) {
		t.Fatal("first Put should not demand flush")
	}
	if !b.Put(1, 1) {
		t.Fatal("second distinct Put should demand flush")
	}
}

func TestBufferTopK(t *testing.T) {
	a := NewDense("w", 10)
	b := NewBuffer(a, nil)
	b.Put(0.1, 0)
	b.Put(-5, 1)
	b.Put(2, 2)
	offs, ups := b.TopK(2)
	if len(offs) != 2 || offs[0] != 1 || ups[0] != -5 || offs[1] != 2 {
		t.Fatalf("TopK = %v %v, want largest magnitudes first", offs, ups)
	}
	if b.Len() != 1 {
		t.Fatalf("buffer should retain 1 element, has %d", b.Len())
	}
	// Remaining element still flushes.
	b.Flush(a)
	if a.At(0) != 0.1 {
		t.Fatal("remaining element lost")
	}
}

func TestBufferDrain(t *testing.T) {
	a := NewDense("w", 4)
	b := NewBuffer(a, nil)
	b.Put(1, 2)
	b.Put(3, 0)
	offs, ups := b.Drain()
	if len(offs) != 2 || offs[0] != 2 || ups[1] != 3 {
		t.Fatalf("Drain = %v %v", offs, ups)
	}
	if b.Len() != 0 {
		t.Fatal("Drain must clear the buffer")
	}
}

// Property: flushing a buffer with the Add UDF is equivalent to having
// applied every write directly.
func TestBufferEquivalenceProperty(t *testing.T) {
	f := func(writes []uint16, vals []int8) bool {
		n := len(writes)
		if len(vals) < n {
			n = len(vals)
		}
		direct := NewDense("w", 64)
		buffered := NewDense("w", 64)
		buf := NewBuffer(buffered, nil)
		for i := 0; i < n; i++ {
			idx := int64(writes[i] % 64)
			v := float64(vals[i])
			direct.AddAt(v, idx)
			buf.Put(v, idx)
		}
		buf.Flush(buffered)
		for i := int64(0); i < 64; i++ {
			if math.Abs(direct.At(i)-buffered.At(i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator("err", 4, 0)
	acc.Add(0, 1)
	acc.Add(3, 2.5)
	if got := acc.Sum(); got != 3.5 {
		t.Fatalf("Sum = %v, want 3.5", got)
	}
	maxOp := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	acc2 := NewAccumulator("max", 3, math.Inf(-1))
	acc2.Update(0, 5, maxOp)
	acc2.Update(2, 9, maxOp)
	if got := acc2.Aggregate(maxOp); got != 9 {
		t.Fatalf("max aggregate = %v", got)
	}
	acc.Reset()
	if acc.Sum() != 0 {
		t.Fatal("Reset broken")
	}
}

func TestBuilderFusedPipeline(t *testing.T) {
	text := `0 0 1.0
1 2 2.0
# comment
2 1 3.0
bad line
`
	parser := func(line string) ([]int64, float64, bool) {
		var i, j int64
		var v float64
		n, err := sscan(line, &i, &j, &v)
		if err != nil || n != 3 {
			return nil, 0, false
		}
		return []int64{i, j}, v, true
	}
	arr, err := FromReader("ratings", strings.NewReader(text), parser, 3, 3).
		Map(func(v float64) float64 { return v * 10 }).
		MapIndex(func(idx []int64, v float64) ([]int64, float64, bool) {
			if v > 25 {
				return idx, v, false // drop the 3.0 record
			}
			return idx, v + 1, true
		}).
		Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", arr.Len())
	}
	if arr.At(0, 0) != 11 || arr.At(1, 2) != 21 {
		t.Fatalf("pipeline values wrong: %v %v", arr.At(0, 0), arr.At(1, 2))
	}
}

func TestBuilderFromArray(t *testing.T) {
	a := NewSparse("x", 4, 4)
	a.SetAt(2, 1, 1)
	b, err := FromArray(a).Map(func(v float64) float64 { return v * v }).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if b.At(1, 1) != 4 {
		t.Fatal("FromArray pipeline broken")
	}
}

// sscan is a tiny fmt.Sscan wrapper avoiding the fmt import dance in
// the parser above.
func sscan(line string, i, j *int64, v *float64) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return 0, nil
	}
	var err error
	*i, err = parseI64(fields[0])
	if err != nil {
		return 0, err
	}
	*j, err = parseI64(fields[1])
	if err != nil {
		return 1, err
	}
	*v, err = parseF64(fields[2])
	if err != nil {
		return 2, err
	}
	return 3, nil
}

func parseI64(s string) (int64, error) {
	var v int64
	var neg bool
	for k, c := range s {
		if k == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, errBad
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

func parseF64(s string) (float64, error) {
	var v float64
	var seenDot bool
	frac := 0.1
	for k, c := range s {
		switch {
		case c == '.' && !seenDot:
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				v += float64(c-'0') * frac
				frac /= 10
			} else {
				v = v*10 + float64(c-'0')
			}
		default:
			_ = k
			return 0, errBad
		}
	}
	return v, nil
}

var errBad = &badErr{}

type badErr struct{}

func (*badErr) Error() string { return "bad number" }

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := NewDense("W", 3, 4)
	a.SetAt(1.5, 2, 3)
	b := NewSparse("Z", 10, 10)
	b.SetAt(-2, 9, 0)
	if err := CheckpointDir(dir, a, b); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDir(dir, "W", "Z")
	if err != nil {
		t.Fatal(err)
	}
	if restored["W"].At(2, 3) != 1.5 || restored["Z"].At(9, 0) != -2 {
		t.Fatal("checkpoint round trip lost data")
	}
	if !restored["W"].IsDense() || restored["Z"].IsDense() {
		t.Fatal("density not preserved")
	}
	if _, err := RestoreDir(dir, "missing"); err == nil {
		t.Fatal("restoring a missing checkpoint must fail")
	}
}
