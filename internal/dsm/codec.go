package dsm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// The partition layout is the one byte encoding of a Partition, shared
// by every container that carries one: the runtime's rotation frames,
// the placement/served-shard/gather blobs, and checkpoint shard files.
// Integers are uvarints in canonical (shortest) form, floats
// little-endian IEEE-754 bits:
//
//	name    length, bytes (at most MaxNameLen)
//	dim     partition dimension (< rank)
//	lo, hi  global coordinate range [lo, hi) along dim
//	rank    number of dimensions (1..MaxRank)
//	extents local extent per dimension; along dim it is hi-lo (1 when
//	        hi == lo)
//	kind    one byte: 0 dense, 1 sparse
//	count   element count: the extent product when dense, the number
//	        of stored entries when sparse
//	payload dense: count float64 values in storage order; sparse: count
//	        (uint64 offset, float64 value) pairs, offsets strictly
//	        increasing and below the extent product
//
// Sparse entries are written in offset order, so the same array always
// encodes to the same bytes.
const (
	// MaxNameLen caps a layout's array-name length.
	MaxNameLen = 4096
	// MaxRank caps a layout's number of dimensions.
	MaxRank = 16

	kindDense  = 0
	kindSparse = 1
	// stageElems is how many elements the decoder requests per
	// Source.Next: wide enough that per-chunk overheads (reads, checksum
	// calls) stay small next to the bytes moved.
	stageElems = 4096
)

// LayoutError reports bytes that are not a valid partition layout: a
// field past its bound, an inconsistent header, or a malformed payload.
// I/O failures of the underlying source are returned as they are.
type LayoutError struct{ Reason string }

func (e *LayoutError) Error() string { return "dsm: malformed partition layout: " + e.Reason }

func layoutErr(format string, args ...any) error {
	return &LayoutError{Reason: fmt.Sprintf(format, args...)}
}

// elemSize is the payload size of one element.
func elemSize(dense bool) int {
	if dense {
		return 8
	}
	return 16
}

// EncodedLen is the exact size of p's layout in bytes.
func (p *Partition) EncodedLen() int {
	var hdr [64]byte
	return len(appendHeader(hdr[:0], p)) + p.Local.Len()*elemSize(p.Local.IsDense())
}

// appendHeader appends everything of p's layout before the payload.
func appendHeader(dst []byte, p *Partition) []byte {
	a := p.Local
	dst = binary.AppendUvarint(dst, uint64(len(p.Array)))
	dst = append(dst, p.Array...)
	dst = binary.AppendUvarint(dst, uint64(p.Dim))
	dst = binary.AppendUvarint(dst, uint64(p.Lo))
	dst = binary.AppendUvarint(dst, uint64(p.Hi))
	dst = binary.AppendUvarint(dst, uint64(len(a.dims)))
	for _, d := range a.dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	kind := byte(kindDense)
	if !a.IsDense() {
		kind = kindSparse
	}
	return binary.AppendUvarint(append(dst, kind), uint64(a.Len()))
}

// AppendPartition appends p's layout to dst: the one encoder every
// container of a partition uses. A sparse partition's entries go out in
// offset order.
func AppendPartition(dst []byte, p *Partition) []byte {
	a := p.Local
	dst = appendHeader(dst, p)
	if a.IsDense() {
		for _, v := range a.dense {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst
	}
	offs := make([]int64, 0, len(a.sparse))
	for off := range a.sparse {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.sparse[off]))
	}
	return dst
}

// MarshalPartition returns p's layout in a buffer sized exactly up
// front.
func MarshalPartition(p *Partition) []byte {
	return AppendPartition(make([]byte, 0, p.EncodedLen()), p)
}

// Source yields a partition layout's bytes to a Decoder.
type Source interface {
	io.ByteReader
	// Next returns the next n bytes; the slice is only valid until the
	// following call.
	Next(n int) ([]byte, error)
}

// Decoder decodes partition layouts, checking every header field
// against its bound and the header's consistency before anything is
// allocated at a size the header claims.
type Decoder struct {
	alloc func(n int) []float64
	// names interns decoded array names, so a decoder that sees the
	// same arrays over and over (a rotation link) allocates no strings.
	names map[string]string
}

// NewDecoder returns a Decoder for a long-lived stream: it interns
// array names, and alloc, when non-nil, supplies dense storage of
// exactly n elements (the runtime's pooled transport buffers).
func NewDecoder(alloc func(n int) []float64) *Decoder {
	return &Decoder{alloc: alloc, names: map[string]string{}}
}

// Decode reads one layout from src, admitting at most maxElems payload
// elements. Malformed content is a *LayoutError; a failure of src is
// returned as is, with io.EOF mid-layout reported as
// io.ErrUnexpectedEOF.
func (d *Decoder) Decode(src Source, maxElems int64) (*Partition, error) {
	r := layoutReader{src: src}
	nameLen := r.uvarint("name length")
	if r.err == nil && nameLen > MaxNameLen {
		return nil, layoutErr("array name length %d exceeds the %d cap", nameLen, MaxNameLen)
	}
	name := r.name(d, int(nameLen))
	dim := r.uvarint("dim")
	lo := r.uvarint("lo")
	hi := r.uvarint("hi")
	rank := r.uvarint("rank")
	if r.err != nil {
		return nil, r.err
	}
	if rank == 0 {
		return nil, layoutErr("empty dims")
	}
	if rank > MaxRank {
		return nil, layoutErr("rank %d exceeds the %d cap", rank, MaxRank)
	}
	var dimsBuf [MaxRank]int64
	dims := dimsBuf[:rank]
	extent := int64(1)
	for i := range dims {
		x := r.uvarint("extent")
		if r.err != nil {
			return nil, r.err
		}
		if x == 0 {
			return nil, layoutErr("zero extent at dim %d", i)
		}
		if x > uint64(math.MaxInt64/extent) {
			return nil, layoutErr("extent %d at dim %d overflows the element space", x, i)
		}
		dims[i] = int64(x)
		extent *= int64(x)
	}
	kind := r.uvarint("kind") // 0 or 1: one byte, as written
	count := r.uvarint("count")
	if r.err != nil {
		return nil, r.err
	}
	switch {
	case dim >= rank:
		return nil, layoutErr("partition dim %d outside rank %d", dim, rank)
	case hi > math.MaxInt64:
		return nil, layoutErr("range end %d overflows", hi)
	case lo > hi:
		return nil, layoutErr("range [%d,%d) is inverted", lo, hi)
	case dims[dim] != max(int64(hi-lo), 1):
		return nil, layoutErr("local extent %d along dim %d does not match range [%d,%d)", dims[dim], dim, lo, hi)
	case kind != kindDense && kind != kindSparse:
		return nil, layoutErr("unknown storage kind %d", kind)
	case kind == kindDense && count != uint64(extent):
		return nil, layoutErr("%d dense elements for extent product %d", count, extent)
	case count > uint64(extent):
		return nil, layoutErr("%d sparse entries for extent product %d", count, extent)
	case maxElems < 0 || count > uint64(maxElems):
		return nil, layoutErr("%d elements exceed the cap %d", count, maxElems)
	}
	p := newPartition(name, int(dim), int64(lo), int64(hi), dims)
	a := p.Local
	n := int(count)
	if kind == kindDense {
		if d.alloc != nil {
			a.dense = d.alloc(n)
		} else {
			a.dense = make([]float64, n)
		}
	} else {
		a.sparse = make(map[int64]float64, n)
	}
	prev := int64(-1)
	for i := 0; i < n; i += stageElems {
		j := min(i+stageElems, n)
		buf, err := src.Next((j - i) * elemSize(kind == kindDense))
		if err != nil {
			return nil, eofMidLayout(err)
		}
		if kind == kindDense {
			for k := range a.dense[i:j] {
				a.dense[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*k:]))
			}
			continue
		}
		for k := 0; k < j-i; k++ {
			off := binary.LittleEndian.Uint64(buf[16*k:])
			if off >= uint64(extent) || int64(off) <= prev {
				return nil, layoutErr("sparse offset %d out of order or past extent product %d", off, extent)
			}
			prev = int64(off)
			a.sparse[prev] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16*k+8:]))
		}
	}
	return p, nil
}

// newPartition allocates a partition and its local array (without
// element storage) together, so decoding one costs two allocations.
func newPartition(name string, dim int, lo, hi int64, dims []int64) *Partition {
	blk := &struct {
		p Partition
		a DistArray
	}{}
	blk.a.setShape(name, dims)
	blk.p = Partition{Array: name, Dim: dim, Lo: lo, Hi: hi, Local: &blk.a}
	return &blk.p
}

// layoutReader reads header fields, keeping the first error.
type layoutReader struct {
	src Source
	err error
}

// uvarint reads one canonical uvarint: a multi-byte encoding whose
// last byte is zero has a shorter form, and accepting it would let two
// byte strings decode to the same partition.
func (r *layoutReader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		b, err := r.src.ReadByte()
		if err != nil {
			r.err = eofMidLayout(err)
			return 0
		}
		if b < 0x80 {
			if (i == binary.MaxVarintLen64-1 && b > 1) || (i > 0 && b == 0) {
				break
			}
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
	}
	r.err = layoutErr("malformed %s varint", field)
	return 0
}

func (r *layoutReader) name(d *Decoder, n int) string {
	if r.err != nil {
		return ""
	}
	b, err := r.src.Next(n)
	if err != nil {
		r.err = eofMidLayout(err)
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names != nil {
		d.names[s] = s
	}
	return s
}

func eofMidLayout(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// sliceSource is a Source over an in-memory layout; Next returns views
// of the slice itself, so decoding from memory copies nothing twice.
type sliceSource struct {
	data []byte
	pos  int
}

func (s *sliceSource) ReadByte() (byte, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	s.pos++
	return s.data[s.pos-1], nil
}

func (s *sliceSource) Next(n int) ([]byte, error) {
	if n > len(s.data)-s.pos {
		return nil, io.ErrUnexpectedEOF
	}
	s.pos += n
	return s.data[s.pos-n : s.pos], nil
}

// UnmarshalPartition decodes a layout that must span data exactly. The
// element cap comes from len(data), so a forged count cannot allocate
// beyond the bytes that are really there.
func UnmarshalPartition(data []byte) (*Partition, error) {
	src := sliceSource{data: data}
	var d Decoder
	p, err := d.Decode(&src, int64(len(data)/8))
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, layoutErr("truncated after %d of %d bytes", src.pos, len(data))
		}
		return nil, err
	}
	if src.pos != len(data) {
		return nil, layoutErr("%d trailing bytes", len(data)-src.pos)
	}
	return p, nil
}
