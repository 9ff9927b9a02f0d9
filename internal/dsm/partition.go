package dsm

import (
	"fmt"
)

// Partition is a contiguous coordinate range of a DistArray along one
// dimension, extracted for placement on a worker or rotation between
// workers (Section 4.4).
type Partition struct {
	Array string
	Dim   int
	Lo    int64 // inclusive
	Hi    int64 // exclusive
	// Local holds the partition's elements as a standalone DistArray
	// whose extent along Dim is Hi-Lo (coordinates rebased to 0).
	Local *DistArray
}

// ExtractRange copies coordinates [lo, hi) along dim into a Partition.
func (a *DistArray) ExtractRange(dim int, lo, hi int64) *Partition {
	if dim < 0 || dim >= len(a.dims) {
		panic(fmt.Sprintf("dsm: %s: bad partition dim %d", a.name, dim))
	}
	if lo < 0 || hi > a.dims[dim] || lo > hi {
		panic(fmt.Sprintf("dsm: %s: bad partition range [%d,%d) along dim %d (extent %d)",
			a.name, lo, hi, dim, a.dims[dim]))
	}
	ndims := append([]int64(nil), a.dims...)
	ndims[dim] = hi - lo
	if hi == lo {
		ndims[dim] = 1 // degenerate but keep a valid array
	}
	var local *DistArray
	if a.IsDense() {
		local = NewDense(a.name, ndims...)
	} else {
		local = NewSparse(a.name, ndims...)
	}
	p := &Partition{Array: a.name, Dim: dim, Lo: lo, Hi: hi, Local: local}
	if hi == lo {
		return p
	}
	if a.IsDense() && dim == len(a.dims)-1 {
		// Fast path: partitioning by the last dimension slices the
		// contiguous backing store.
		copy(local.dense, a.dense[lo*a.stride[dim]:hi*a.stride[dim]])
		return p
	}
	a.ForEach(func(idx []int64, v float64) {
		if idx[dim] < lo || idx[dim] >= hi {
			return
		}
		nidx := append([]int64(nil), idx...)
		nidx[dim] -= lo
		local.SetAt(v, nidx...)
	})
	return p
}

// WriteBack merges the partition's contents back into the full array.
func (p *Partition) WriteBack(a *DistArray) {
	if a.Name() != p.Array {
		panic(fmt.Sprintf("dsm: writing partition of %q into %q", p.Array, a.Name()))
	}
	if p.Hi == p.Lo {
		return
	}
	if a.IsDense() && p.Local.IsDense() && p.Dim == len(a.dims)-1 {
		copy(a.dense[p.Lo*a.stride[p.Dim]:p.Hi*a.stride[p.Dim]], p.Local.dense)
		return
	}
	p.Local.ForEach(func(idx []int64, v float64) {
		nidx := append([]int64(nil), idx...)
		nidx[p.Dim] += p.Lo
		a.SetAt(v, nidx...)
	})
}

// At reads an element using *global* coordinates. The rebase into the
// local array neither copies nor mutates idx, so the call does not
// allocate.
func (p *Partition) At(idx ...int64) float64 {
	_ = idx[p.Dim] // a subscript list too short for Dim panics with Go's index error, before Flatten's arity check
	return p.Local.atOffset(p.Local.flattenShifted(idx, p.Dim, p.Lo))
}

// SetAt writes an element using *global* coordinates, without
// allocating.
func (p *Partition) SetAt(v float64, idx ...int64) {
	_ = idx[p.Dim]
	p.Local.setOffset(v, p.Local.flattenShifted(idx, p.Dim, p.Lo))
}

// DenseWindow implements lang.DenseAccess in global coordinates: the
// local array's storage, with the window [Lo, Hi) along Dim and the
// full extent along every other dimension. Sparse and degenerate
// (Hi == Lo) partitions, and a nil partition, report no dense window.
func (p *Partition) DenseWindow(lo, hi []int64) (data []float64, stride []int64) {
	if p == nil || p.Hi == p.Lo {
		return nil, nil
	}
	data, stride = p.Local.DenseWindow(lo, hi)
	if data != nil {
		lo[p.Dim], hi[p.Dim] = p.Lo, p.Hi
	}
	return data, stride
}

// Contains reports whether global coordinate c along the partition dim
// belongs to this partition.
func (p *Partition) Contains(c int64) bool { return c >= p.Lo && c < p.Hi }

// Bytes estimates the partition's wire size (8 bytes per element plus
// 16 bytes per sparse entry for the coordinates).
func (p *Partition) Bytes() int64 {
	if p.Local.IsDense() {
		return int64(p.Local.Len()) * 8
	}
	return int64(p.Local.Len()) * 24
}

// RangePartitions splits the array into parts contiguous ranges along
// dim using the given boundaries; boundaries[k] is the first coordinate
// of partition k+1 (len == parts-1). Use sched.Partitioner to compute
// balanced boundaries.
func (a *DistArray) RangePartitions(dim, parts int, boundaries []int64) []*Partition {
	if len(boundaries) != parts-1 {
		panic(fmt.Sprintf("dsm: %d boundaries for %d parts", len(boundaries), parts))
	}
	out := make([]*Partition, parts)
	lo := int64(0)
	for k := 0; k < parts; k++ {
		hi := a.dims[dim]
		if k < parts-1 {
			hi = boundaries[k]
		}
		out[k] = a.ExtractRange(dim, lo, hi)
		lo = hi
	}
	return out
}

// EqualRangePartitions splits into equal-width ranges along dim.
func (a *DistArray) EqualRangePartitions(dim, parts int) []*Partition {
	boundaries := make([]int64, 0, parts-1)
	for k := 1; k < parts; k++ {
		boundaries = append(boundaries, a.dims[dim]*int64(k)/int64(parts))
	}
	return a.RangePartitions(dim, parts, boundaries)
}
