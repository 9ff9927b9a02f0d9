package runtime

import (
	"math"
	"math/rand"
	"testing"

	"orion/internal/dsm"
)

// foldBatches is a set of staged update batches whose result depends on
// the order they apply in: same-epoch additive batches from different
// senders that reassociate (1e16 + 1 - 1e16 is 0 or 1 depending on the
// order), one sender's absolute write followed by its own delta, and a
// later-epoch batch that must apply after every earlier-epoch one.
func foldBatches() []stagedUpdate {
	return []stagedUpdate{
		{src: 0, epoch: 1, offs: []int64{0, 2}, vals: []float64{1e16, 0.1}},
		{src: 1, epoch: 1, offs: []int64{0, 2}, vals: []float64{1, 0.2}},
		{src: 2, epoch: 1, offs: []int64{0, 2}, vals: []float64{-1e16, 0.3}},
		{src: 1, epoch: 1, offs: []int64{1}, vals: []float64{5}, absolute: true},
		{src: 1, epoch: 1, offs: []int64{1}, vals: []float64{2}},
		{src: 0, epoch: 2, offs: []int64{1}, vals: []float64{3}, absolute: true},
		{src: 0, epoch: 2, offs: []int64{2}, vals: []float64{0.7}},
		{src: 2, epoch: 2, offs: []int64{2}, vals: []float64{1e-17}},
	}
}

// arrivalOrders returns the batches in several arrival orders that
// keep each sender's own batches in send order (one connection per
// sender is FIFO) but interleave senders arbitrarily.
func arrivalOrders(seed int64, n int) [][]stagedUpdate {
	base := foldBatches()
	rng := rand.New(rand.NewSource(seed))
	orders := [][]stagedUpdate{base}
	for len(orders) < n {
		bySrc := map[int][]stagedUpdate{}
		for _, u := range base {
			bySrc[u.src] = append(bySrc[u.src], u)
		}
		var out []stagedUpdate
		for len(out) < len(base) {
			src := rng.Intn(3)
			if q := bySrc[src]; len(q) > 0 {
				out = append(out, q[0])
				bySrc[src] = q[1:]
			}
		}
		orders = append(orders, out)
	}
	return orders
}

func bitsOf(a *dsm.DistArray) []uint64 {
	var out []uint64
	a.ForEach(func(_ []int64, v float64) { out = append(out, math.Float64bits(v)) })
	return out
}

func requireSameBits(t *testing.T, what string, order int, want, got []uint64) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: arrival order %d folds element %d to %v, order 0 to %v",
				what, order, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestFoldOrderIsArrivalIndependent: executor shards and master-held
// served arrays fold staged batches in (epoch, src) order, so every
// arrival interleaving produces bitwise-identical arrays — including a
// partial fold up to an epoch followed by the rest.
func TestFoldOrderIsArrivalIndependent(t *testing.T) {
	orders := arrivalOrders(5, 12)

	var shardRef, masterRef []uint64
	for oi, order := range orders {
		full := dsm.NewDense("w", 3)
		tbl := newShardTable([]int64{3}, nil, full.ExtractRange(0, 0, 3))
		for _, u := range order {
			tbl.stage(u)
		}
		tbl.fold(2) // epoch 1 only
		tbl.fold(0)
		if len(tbl.pending) != 0 || len(tbl.seen) != 0 {
			t.Fatalf("shard order %d: %d batches, %d keys left staged", oi, len(tbl.pending), len(tbl.seen))
		}
		tbl.local.WriteBack(full)
		got := bitsOf(full)

		m := &Master{
			served:        map[string]*dsm.DistArray{"w": dsm.NewDense("w", 3)},
			servedPending: map[string][]stagedUpdate{"w": append([]stagedUpdate(nil), order...)},
		}
		m.foldServed("w", 2)
		m.foldServed("w", 0)
		gotMaster := bitsOf(m.served["w"])

		if oi == 0 {
			shardRef, masterRef = got, gotMaster
			// (epoch, src) order: 1e16, +1 (absorbed), -1e16 → 0; the
			// absolute 5 then +2 → 7; the epoch-2 absolute 3 wins.
			if v := full.At(0); v != 0 {
				t.Fatalf("element 0 = %v, want 0 from (epoch, src) order", v)
			}
			if v := full.At(1); v != 3 {
				t.Fatalf("element 1 = %v, want 3", v)
			}
			continue
		}
		requireSameBits(t, "shard", oi, shardRef, got)
		requireSameBits(t, "master", oi, masterRef, gotMaster)
	}
	requireSameBits(t, "master vs shard", 0, shardRef, masterRef)
}
