package dsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// layoutBytes hand-builds a partition layout: the header fields as
// given, then payload words as raw little-endian uint64s.
func layoutBytes(name string, dim, lo, hi uint64, dims []uint64, kind byte, count uint64, payload ...uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, dim)
	b = binary.AppendUvarint(b, lo)
	b = binary.AppendUvarint(b, hi)
	b = binary.AppendUvarint(b, uint64(len(dims)))
	for _, d := range dims {
		b = binary.AppendUvarint(b, d)
	}
	b = append(b, kind)
	b = binary.AppendUvarint(b, count)
	for _, w := range payload {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func f64(v float64) uint64 { return math.Float64bits(v) }

// hostileLayouts are headers and payloads the decoder must refuse.
func hostileLayouts() map[string][]byte {
	neg := uint64(1<<64 - 3) // int64(-3) as a uvarint
	return map[string][]byte{
		"empty dims":        layoutBytes("w", 0, 0, 1, nil, kindDense, 0),
		"zero extent":       layoutBytes("w", 0, 0, 2, []uint64{2, 0}, kindDense, 0),
		"negative extent":   layoutBytes("w", 0, 0, 2, []uint64{2, neg}, kindDense, 6),
		"overflow extent":   layoutBytes("w", 0, 0, 2, []uint64{2, 1 << 40, 1 << 40}, kindSparse, 0),
		"rank over cap":     layoutBytes("w", 0, 0, 1, make([]uint64, MaxRank+1), kindDense, 1),
		"name over cap":     layoutBytes(string(make([]byte, MaxNameLen+1)), 0, 0, 1, []uint64{1}, kindDense, 1, 0),
		"dense count short": layoutBytes("w", 0, 0, 4, []uint64{4, 4}, kindDense, 2, f64(1), f64(2)),
		"sparse unordered":  layoutBytes("w", 0, 0, 4, []uint64{4}, kindSparse, 2, 2, f64(1), 1, f64(2)),
		"sparse duplicate":  layoutBytes("w", 0, 0, 4, []uint64{4}, kindSparse, 2, 1, f64(1), 1, f64(2)),
		"sparse past end":   layoutBytes("w", 0, 0, 4, []uint64{4}, kindSparse, 1, 4, f64(1)),
		"dim past rank":     layoutBytes("w", 1, 0, 2, []uint64{2}, kindDense, 2, f64(1), f64(2)),
		"lo past hi":        layoutBytes("w", 0, 9, 2, []uint64{5}, kindDense, 5, 0, 0, 0, 0, 0),
		"extent not range":  layoutBytes("w", 0, 1, 3, []uint64{3}, kindDense, 3, 0, 0, 0),
		"empty range wide":  layoutBytes("w", 0, 2, 2, []uint64{2}, kindDense, 2, 0, 0),
		"unknown kind":      layoutBytes("w", 0, 0, 1, []uint64{1}, 7, 1, 0),
		"count over cap":    layoutBytes("w", 0, 0, 1<<30, []uint64{1 << 30}, kindDense, 1<<30),
		"truncated payload": layoutBytes("w", 0, 0, 3, []uint64{3}, kindDense, 3, 0, 0),
		"trailing bytes":    append(layoutBytes("w", 0, 0, 1, []uint64{1}, kindDense, 1, 0), 0),
		"non-canonical":     append([]byte{0x81, 0x00}, layoutBytes("w", 0, 0, 1, []uint64{1}, kindDense, 1, 0)[1:]...),
		"empty input":       nil,
	}
}

// TestDecodePartitionRejectsHostileHeaders: every malformed layout is a
// typed *LayoutError — never a panic, never a short or inconsistent
// partition that fails later at first use.
func TestDecodePartitionRejectsHostileHeaders(t *testing.T) {
	for name, data := range hostileLayouts() {
		p, err := UnmarshalPartition(data)
		var le *LayoutError
		if !errors.As(err, &le) || p != nil {
			t.Errorf("%s: got partition %v, err %v; want a *LayoutError", name, p, err)
		}
	}
	// The stream decoder applies the caller's cap before allocating.
	ok := layoutBytes("w", 0, 0, 4, []uint64{4}, kindDense, 4, 0, 0, 0, 0)
	var d Decoder
	_, err := d.Decode(&sliceSource{data: ok}, 3)
	var le *LayoutError
	if !errors.As(err, &le) {
		t.Fatalf("4 elements under a cap of 3: err = %v, want *LayoutError", err)
	}
	if _, err := d.Decode(&sliceSource{data: ok}, 4); err != nil {
		t.Fatalf("4 elements under a cap of 4: %v", err)
	}
}

// TestPartitionLayoutDeterministic: a sparse partition encodes to the
// same bytes every time, whatever order its map iterates in.
func TestPartitionLayoutDeterministic(t *testing.T) {
	a := NewSparse("S", 10, 10)
	for i := int64(0); i < 50; i++ {
		a.SetAt(float64(i)+0.5, i%10, i/10)
	}
	p := a.ExtractRange(1, 0, 10)
	first := MarshalPartition(p)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(MarshalPartition(p), first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestLayoutRoundTripAcrossChunks: partitions whose payloads span
// several decoder chunks round-trip bitwise; EncodedLen is exact, and
// AppendPartition onto a prefix appends exactly MarshalPartition's
// bytes.
func TestLayoutRoundTripAcrossChunks(t *testing.T) {
	d := NewDense("D", 3, 3*stageElems+5)
	d.MapIndex(func(idx []int64, _ float64) float64 { return float64(idx[0]*7+idx[1]) / 3 })
	s := NewSparse("S", 4, 3*stageElems)
	for j := int64(0); j < 3*stageElems; j += 2 {
		s.SetAt(-float64(j), j%4, j)
	}
	for _, p := range []*Partition{d.ExtractRange(1, 0, 3*stageElems+5), s.ExtractRange(1, 0, 3*stageElems)} {
		want := MarshalPartition(p)
		if len(want) != p.EncodedLen() {
			t.Fatalf("%s: encoded %d bytes, EncodedLen says %d", p.Array, len(want), p.EncodedLen())
		}
		if got := AppendPartition([]byte("prefix"), p); !bytes.Equal(got[6:], want) {
			t.Fatalf("%s: AppendPartition differs from MarshalPartition", p.Array)
		}
		got, err := UnmarshalPartition(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(MarshalPartition(got), want) {
			t.Fatalf("%s: round trip not bitwise equal", p.Array)
		}
	}
}

// FuzzDecodePartition: arbitrary bytes either fail with a *LayoutError
// or decode to a partition that re-encodes to exactly the same bytes.
func FuzzDecodePartition(f *testing.F) {
	d := NewDense("W", 3, 4)
	d.SetAt(math.NaN(), 2, 1)
	d.SetAt(math.Inf(-1), 0, 3)
	f.Add(MarshalPartition(d.ExtractRange(1, 1, 3)))
	f.Add(MarshalPartition(d.ExtractRange(0, 1, 1)))
	s := NewSparse("Z", 6, 6)
	s.SetAt(1.25, 5, 5)
	s.SetAt(-2, 0, 3)
	f.Add(MarshalPartition(s.ExtractRange(0, 0, 6)))
	for _, data := range hostileLayouts() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPartition(data)
		if err != nil {
			var le *LayoutError
			if !errors.As(err, &le) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if got := MarshalPartition(p); !bytes.Equal(got, data) {
			t.Fatalf("accepted layout re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}
