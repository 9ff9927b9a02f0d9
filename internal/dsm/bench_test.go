package dsm

import (
	"math/rand"
	"testing"
)

func BenchmarkDenseVec(b *testing.B) {
	a := NewDense("W", 64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Vec(int64(i % 1000))
	}
}

func BenchmarkSparseSetAt(b *testing.B) {
	a := NewSparse("Z", 1<<20, 1<<10)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SetAt(1.0, rng.Int63n(1<<20), rng.Int63n(1<<10))
	}
}

func BenchmarkPartitionExtractDense(b *testing.B) {
	a := NewDense("W", 64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ExtractRange(1, 1024, 2048)
	}
}

func BenchmarkPartitionEncodeDecode(b *testing.B) {
	a := NewDense("W", 64, 4096)
	p := a.ExtractRange(1, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalPartition(MarshalPartition(p)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPutFlush(b *testing.B) {
	a := NewDense("w", 1<<16)
	buf := NewBuffer(a, nil)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Put(1.0, rng.Int63n(1<<16))
		if buf.Len() >= 1024 {
			buf.Flush(a)
		}
	}
}
