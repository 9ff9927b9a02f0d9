package runtime

import (
	"fmt"
	"sort"
	"sync"

	"orion/internal/dsm"
)

// Parameter-server sharding (Section 4.4: served DistArrays are "served
// by a number of server processes"). A served array is range-sharded
// along its last dimension across all executors; every executor both
// consumes (prefetching from owners) and serves (answering peer RPCs
// from its reader goroutines) shards. Same-executor accesses short-
// circuit locally — the common case after locality-aware planning.

// stagedUpdate is an update batch an owner has received but not yet
// folded into its shard: it becomes visible only to reads from later
// epochs, making served reads step-consistent (and so deterministic)
// no matter how block execution interleaves across executors.
type stagedUpdate struct {
	src      int
	epoch    int64
	offs     []int64
	vals     []float64
	absolute bool
}

// updKey identifies one sender's update batch for duplicate-delivery
// suppression. An executor flushes at most one batch per (array, epoch,
// absolute-flag) per block, and runs one block per step, so a second
// arrival with the same key within the staging window is a replayed
// delivery — dropped, never double-applied. The codec's sequence
// numbers already condemn duplicated frames at the transport; this is
// the idempotence backstop at the state layer.
type updKey struct {
	src      int
	epoch    int64
	absolute bool
}

func (u stagedUpdate) key() updKey {
	return updKey{src: u.src, epoch: u.epoch, absolute: u.absolute}
}

// shardTable tracks one served array's sharding on an executor.
type shardTable struct {
	dims []int64
	// boundaries along the last dim (len = n-1): owner k holds
	// lastCoord in [boundaries[k-1], boundaries[k]).
	boundaries []int64
	// local is this executor's shard (nil if it owns nothing).
	local *dsm.Partition
	// lastStride = product of all dims except the last: flattened
	// offset / lastStride = last-dim coordinate.
	lastStride int64
	// pending holds staged updates in arrival order, folded in on the
	// first read from a later epoch. seen tracks the keys of batches
	// currently staged (pruned as they fold), so a duplicated delivery
	// cannot double-apply.
	pending []stagedUpdate
	seen    map[updKey]struct{}
}

// fold applies every pending update from an epoch before the reader's
// into the local shard (see foldStaged). epoch <= 0 folds everything.
func (t *shardTable) fold(epoch int64) {
	t.pending = foldStaged(t.pending, epoch, t.seen, func(off int64, v float64, absolute bool) {
		if absolute {
			t.set(off, v)
		} else {
			t.add(off, v)
		}
	})
}

// foldStaged applies the staged batches from epochs before the reader's
// (epoch <= 0: all of them) through apply, prunes their keys from seen,
// and returns the batches still staged. Batches apply in (epoch, src)
// order, keeping arrival order only among batches of one (epoch, src):
// senders' flushes interleave on the wire differently from run to run,
// and applying them as they arrived would reassociate same-epoch
// real-valued updates, breaking the bitwise serial ≡ parallel ≡
// recovered contract. One sender's batches keep their send order
// (absolute writes before additive deltas).
func foldStaged(pending []stagedUpdate, epoch int64, seen map[updKey]struct{},
	apply func(off int64, v float64, absolute bool)) []stagedUpdate {
	var ready []stagedUpdate
	kept := pending[:0]
	for _, u := range pending {
		if epoch > 0 && u.epoch >= epoch {
			kept = append(kept, u)
			continue
		}
		ready = append(ready, u)
	}
	sort.SliceStable(ready, func(i, j int) bool {
		if ready[i].epoch != ready[j].epoch {
			return ready[i].epoch < ready[j].epoch
		}
		return ready[i].src < ready[j].src
	})
	for _, u := range ready {
		for i, off := range u.offs {
			apply(off, u.vals[i], u.absolute)
		}
		delete(seen, u.key())
	}
	return kept
}

// stage appends one update batch unless an identical delivery is
// already staged (duplicate suppression — see updKey). Epoch 0 batches
// come from unstamped legacy paths and are never deduplicated.
func (t *shardTable) stage(u stagedUpdate) {
	if u.epoch > 0 {
		k := u.key()
		if _, dup := t.seen[k]; dup {
			return
		}
		if t.seen == nil {
			t.seen = map[updKey]struct{}{}
		}
		t.seen[k] = struct{}{}
	}
	t.pending = append(t.pending, u)
}

func newShardTable(dims, boundaries []int64, local *dsm.Partition) *shardTable {
	stride := int64(1)
	for _, d := range dims[:len(dims)-1] {
		stride *= d
	}
	return &shardTable{dims: dims, boundaries: boundaries, local: local, lastStride: stride}
}

// ownerOf returns the executor owning a flattened offset.
func (t *shardTable) ownerOf(off int64) int {
	last := off / t.lastStride
	return sort.Search(len(t.boundaries), func(k int) bool { return t.boundaries[k] > last })
}

// at reads a flattened offset from the local shard.
func (t *shardTable) at(off int64) float64 {
	idx := unflatten(t.dims, off)
	return t.local.At(idx...)
}

// add accumulates into a flattened offset of the local shard.
func (t *shardTable) add(off int64, delta float64) {
	idx := unflatten(t.dims, off)
	t.local.SetAt(t.local.At(idx...)+delta, idx...)
}

// set overwrites a flattened offset of the local shard.
func (t *shardTable) set(off int64, v float64) {
	idx := unflatten(t.dims, off)
	t.local.SetAt(v, idx...)
}

func unflatten(dims []int64, off int64) []int64 {
	idx := make([]int64, len(dims))
	stride := int64(1)
	strides := make([]int64, len(dims))
	for i, d := range dims {
		strides[i] = stride
		stride *= d
	}
	for i := len(dims) - 1; i >= 0; i-- {
		idx[i] = off / strides[i]
		off %= strides[i]
	}
	return idx
}

// shardSet is the executor-side state for all sharded arrays.
type shardSet struct {
	mu     sync.Mutex
	tables map[string]*shardTable
	peers  []string
	t      Transport
	// clients are lazily dialed RPC connections to peer executors,
	// used synchronously from the executor's main goroutine.
	clients map[int]*codec
	selfID  int
}

func newShardSet(t Transport, selfID int) *shardSet {
	return &shardSet{
		tables:  map[string]*shardTable{},
		clients: map[int]*codec{},
		t:       t,
		selfID:  selfID,
	}
}

func (s *shardSet) install(array string, dims, boundaries []int64, local *dsm.Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[array] = newShardTable(dims, boundaries, local)
}

func (s *shardSet) table(array string) *shardTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[array]
}

// serveRead answers a peer's (or the local executor's) read of offsets
// this executor owns, as of the reader's epoch: staged updates from
// earlier epochs are folded in first, same-epoch ones stay invisible.
func (s *shardSet) serveRead(array string, offs []int64, epoch int64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil || t.local == nil {
		return nil, fmt.Errorf("runtime: executor %d serves no shard of %q", s.selfID, array)
	}
	t.fold(epoch)
	out := make([]float64, len(offs))
	for i, off := range offs {
		out[i] = t.at(off)
	}
	return out, nil
}

// serveUpdate stages a peer's update batch against the local shard:
// additive deltas, or absolute final values (used for serializable
// direct writes under ordered wavefront execution, where the schedule
// guarantees a single writer). The batch folds in when a later-epoch
// read (or a gather) arrives; offsets and values are copied because
// the serving loop reuses the decoded message's storage. src is the
// sending executor's id: together with the epoch it keys
// duplicate-delivery suppression, so a replayed batch stages once.
func (s *shardSet) serveUpdate(array string, src int, offs []int64, vals []float64, absolute bool, epoch int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil || t.local == nil {
		return fmt.Errorf("runtime: executor %d serves no shard of %q", s.selfID, array)
	}
	t.stage(stagedUpdate{
		src:      src,
		epoch:    epoch,
		offs:     append([]int64(nil), offs...),
		vals:     append([]float64(nil), vals...),
		absolute: absolute,
	})
	return nil
}

// gatherLocal folds everything pending and returns the local shard for
// a gather (nil if this executor owns nothing of the array).
func (s *shardSet) gatherLocal(array string) *dsm.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil || t.local == nil {
		return nil
	}
	t.fold(0)
	return t.local
}

// client returns (dialing if needed) the RPC connection to peer id.
func (s *shardSet) client(id int) (*codec, error) {
	s.mu.Lock()
	c := s.clients[id]
	peers := s.peers
	s.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if id < 0 || id >= len(peers) {
		return nil, fmt.Errorf("runtime: no peer %d", id)
	}
	conn, err := s.t.Dial(peers[id])
	if err != nil {
		return nil, fmt.Errorf("runtime: dialing shard owner %d: %w", id, err)
	}
	c = newPeerCodec(conn, fmt.Sprintf("exec%d/peer%d", s.selfID, id))
	s.mu.Lock()
	if existing := s.clients[id]; existing != nil {
		s.mu.Unlock()
		c.close()
		return existing, nil
	}
	s.clients[id] = c
	s.mu.Unlock()
	return c, nil
}

func (s *shardSet) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		c.close()
	}
	s.clients = map[int]*codec{}
}
