package runtime

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
)

// ErrWorkerLost marks the failure of an executor connection while the
// master still expected results (a worker died mid-loop). Callers can
// detect it with errors.Is to distinguish partial-result aborts from
// ordinary kernel errors.
var ErrWorkerLost = errors.New("worker lost")

// defaultHeartbeatMs is the ping interval shipped to executors in the
// setup message. Pings are always sent (one tiny message per
// executor per interval); the master only *checks* staleness when
// SetHeartbeat arms a timeout.
const defaultHeartbeatMs = 500

// masterChans is one fleet generation's response channels. Recovery
// re-forms the fleet with a fresh set, so connection handlers of a
// dead generation can never feed stale messages into a resumed loop's
// barrier.
type masterChans struct {
	blockDone  chan *Msg
	gatherResp chan *Msg
	accumResp  chan *Msg
	ackCh      chan *Msg
	traceCh    chan *Msg
	execErr    chan error
}

func newMasterChans(n int) *masterChans {
	return &masterChans{
		blockDone:  make(chan *Msg, n),
		gatherResp: make(chan *Msg, n),
		accumResp:  make(chan *Msg, n),
		ackCh:      make(chan *Msg, n),
		// Trace collection is sequential (one outstanding request per
		// executor), but a timed-out response may arrive late; 2n slots
		// keep handlers from ever blocking on stale replies.
		traceCh: make(chan *Msg, 2*n),
		// Each connection can contribute both a MsgError and a
		// connection-loss error; size the buffer so handlers never block.
		execErr: make(chan error, 2*n),
	}
}

func freshSeen(n int) []*atomic.Int64 {
	out := make([]*atomic.Int64, n)
	now := time.Now().UnixNano()
	for i := range out {
		out[i] = &atomic.Int64{}
		out[i].Store(now)
	}
	return out
}

// Master is the Orion coordinator (Fig. 3): the driver program talks to
// it to distribute DistArrays, launch parallel for-loops, gather
// results, and aggregate accumulators.
type Master struct {
	t    Transport
	addr string
	n    int

	conns []*codec // by executor id
	peers []string // executor ring addresses, by id
	ln    net.Listener

	mu     sync.Mutex
	served map[string]*dsm.DistArray
	// servedPending stages update batches for master-held served
	// arrays, exactly like executor shard owners do: a batch folds in
	// on the first read from a later epoch (or any unstamped access),
	// keeping master-served reads step-consistent too. servedSeen keys
	// the currently staged batches per array for duplicate-delivery
	// suppression, mirroring shardTable.seen.
	servedPending map[string][]stagedUpdate
	servedSeen    map[string]map[updKey]struct{}

	ch       *masterChans
	lastSeen []*atomic.Int64 // liveness timestamps, by executor id

	// clock counts completed global steps across every loop this master
	// has run; it is the coordinate system of checkpoints and of the
	// chaos harness's fault scripts. clockHook (when set) observes the
	// clock at the start of each step, before any block is dispatched.
	clock     atomic.Int64
	clockHook func(int64)
	// hbTimeout, when non-zero, makes the ParallelFor barrier treat an
	// executor whose last message is older than the timeout as lost —
	// catching wedged or blackholed workers whose connections are still
	// technically open.
	hbTimeout time.Duration

	// bookkeeping for gather and the prefetch-miss counter.
	arrayDims  map[string][]int64
	arrayDense map[string]bool
	missCount  int64

	// closed flips when Shutdown starts tearing connections down, so
	// handleConn can tell an expected close from a worker dying mid-loop.
	closed atomic.Bool

	// Observability: the master's span buffer (nil when tracing is off)
	// and the per-loop execution reports assembled from BlockDone stats.
	trace   *obs.TraceBuf
	reports map[string]*obs.LoopReport
}

// Listen creates a master accepting executor registrations at addr.
// Call Addr to learn the bound address (useful with ":0" TCP ports) and
// WaitForExecutors to complete the bring-up.
func Listen(t Transport, addr string, n int) (*Master, error) {
	m := &Master{
		t: t, addr: addr, n: n,
		conns:         make([]*codec, n),
		served:        map[string]*dsm.DistArray{},
		servedPending: map[string][]stagedUpdate{},
		servedSeen:    map[string]map[updKey]struct{}{},
		ch:            newMasterChans(n),
		lastSeen:      freshSeen(n),
		arrayDims:     map[string][]int64{},
		arrayDense:    map[string]bool{},
		trace:         obs.NewBuf(0, "master"),
		reports:       map[string]*obs.LoopReport{},
	}
	ln, err := t.Listen(addr)
	if err != nil {
		return nil, err
	}
	m.ln = ln
	// Remember the *resolved* address so recovery can re-listen on the
	// same endpoint (":0" TCP ports resolve at bind time).
	m.addr = ln.Addr().String()
	return m, nil
}

// Addr returns the master's bound listen address.
func (m *Master) Addr() string { return m.addr }

// PeerAddrs returns the executors' ring addresses by id (available
// after WaitForExecutors) — used by fault-injection scripts to target
// specific peer links.
func (m *Master) PeerAddrs() []string { return append([]string(nil), m.peers...) }

// Clock returns the number of completed global steps across all loops.
func (m *Master) Clock() int64 { return m.clock.Load() }

// SetClockHook installs a function observing the clock at the start of
// every step, before that step's blocks are dispatched. The chaos
// harness drives fault scripts from it. Set before loops run.
func (m *Master) SetClockHook(fn func(clock int64)) { m.clockHook = fn }

// SetHeartbeat arms staleness detection: a worker silent for longer
// than timeout while the master waits at a step barrier is treated as
// lost. Zero disables the check (the default); executors ping every
// defaultHeartbeatMs regardless.
func (m *Master) SetHeartbeat(timeout time.Duration) { m.hbTimeout = timeout }

// NewMaster creates a master at addr and blocks until all n executors
// have registered (convenience for fixed addresses).
func NewMaster(t Transport, addr string, n int) (*Master, error) {
	m, err := Listen(t, addr, n)
	if err != nil {
		return nil, err
	}
	if err := m.WaitForExecutors(); err != nil {
		return nil, err
	}
	return m, nil
}

// WaitForExecutors accepts all n executor registrations, distributes
// the ring topology, and starts the connection handlers. A hello with
// id -1 is assigned the first free slot.
func (m *Master) WaitForExecutors() error {
	n := m.n
	defer m.ln.Close()
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		conn, err := m.ln.Accept()
		if err != nil {
			return err
		}
		c := newCodec(conn)
		hello, err := c.recv()
		if err != nil {
			return err
		}
		if hello.Kind != MsgHello {
			return fmt.Errorf("runtime: master: expected hello, got %v", hello.Kind)
		}
		id := hello.ExecutorID
		if id == -1 {
			for k := 0; k < n; k++ {
				if m.conns[k] == nil {
					id = k
					break
				}
			}
		}
		if id < 0 || id >= n || m.conns[id] != nil {
			return fmt.Errorf("runtime: master: bad executor id %d", hello.ExecutorID)
		}
		// The executor id is only known after the hello, so this side of
		// the link counts messages (the executor side counts bytes too).
		c.stats = obs.Peer(fmt.Sprintf("master/exec%d", id))
		m.conns[id] = c
		peers[id] = hello.PeerAddr
	}
	m.peers = peers
	for id, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgSetup, ExecutorID: id, Peers: peers, NumExecs: n, HeartbeatMs: defaultHeartbeatMs, Trace: obs.Tracing()}); err != nil {
			return err
		}
		go m.handleConn(id, c, m.ch, m.lastSeen[id])
	}
	return nil
}

// handleConn processes executor-initiated messages for one fleet
// generation: responses land in that generation's channels, so a
// handler outliving a recovery cannot pollute the next generation's
// barriers.
func (m *Master) handleConn(id int, c *codec, ch *masterChans, seen *atomic.Int64) {
	for {
		msg, err := c.recv()
		if err != nil {
			// Expected during Shutdown; otherwise the worker died while
			// the master may still be waiting on its results — surface
			// the loss so ParallelFor/Gather don't hang on the barrier.
			if !m.closed.Load() {
				ch.execErr <- fmt.Errorf("runtime: executor %d connection failed (%v): %w", id, err, ErrWorkerLost)
			}
			return
		}
		seen.Store(time.Now().UnixNano())
		switch msg.Kind {
		case MsgPing:
			// Liveness only — the timestamp refresh above is the point.
		case MsgBlockDone:
			ch.blockDone <- msg
		case MsgGatherResp:
			ch.gatherResp <- msg
		case MsgAccumResp:
			ch.accumResp <- msg
		case MsgAck:
			ch.ackCh <- msg
		case MsgTraceSync, MsgTraceDump:
			// Never block on a stale reply: the collector may have
			// timed out and moved on, leaving the buffer full.
			select {
			case ch.traceCh <- msg:
			default:
			}
		case MsgPrefetch:
			m.mu.Lock()
			arr := m.served[msg.Array]
			var vals []float64
			if arr != nil {
				m.foldServed(msg.Array, msg.Epoch)
				vals = make([]float64, len(msg.Offsets))
				for i, off := range msg.Offsets {
					vals[i] = arr.At(arr.Unflatten(off)...)
				}
			}
			m.mu.Unlock()
			if arr == nil {
				c.send(&Msg{Kind: MsgError, Err: fmt.Sprintf("unknown served array %q", msg.Array)})
				continue
			}
			c.send(&Msg{Kind: MsgPrefetchResp, Array: msg.Array, Offsets: msg.Offsets, Values: vals})
		case MsgUpdateBatch:
			m.mu.Lock()
			if arr := m.served[msg.Array]; arr != nil {
				u := stagedUpdate{
					src:      id,
					epoch:    msg.Epoch,
					offs:     append([]int64(nil), msg.Offsets...),
					vals:     append([]float64(nil), msg.Values...),
					absolute: msg.Absolute,
				}
				// Duplicate-delivery suppression, keyed like
				// shardTable.stage (epoch 0 batches are legacy unstamped
				// paths and never deduplicated).
				dup := false
				if u.epoch > 0 {
					seen := m.servedSeen[msg.Array]
					if seen == nil {
						seen = map[updKey]struct{}{}
						m.servedSeen[msg.Array] = seen
					}
					if _, dup = seen[u.key()]; !dup {
						seen[u.key()] = struct{}{}
					}
				}
				if !dup {
					m.servedPending[msg.Array] = append(m.servedPending[msg.Array], u)
				}
			}
			m.mu.Unlock()
		case MsgError:
			err := fmt.Errorf("runtime: executor %d: %s", id, msg.Err)
			if msg.Lost {
				// The executor reported a broken peer link (ring or
				// shard) — a recoverable worker loss, not a kernel bug.
				err = fmt.Errorf("runtime: executor %d: %s: %w", id, msg.Err, ErrWorkerLost)
			}
			ch.execErr <- err
		}
	}
}

// broadcastParts sends one partition per executor.
func (m *Master) broadcastParts(array string, parts []*dsm.Partition, rotated bool) error {
	if len(parts) != m.n {
		return fmt.Errorf("runtime: %d partitions for %d executors", len(parts), m.n)
	}
	for id, p := range parts {
		blob, err := p.Encode()
		if err != nil {
			return err
		}
		if err := m.conns[id].send(&Msg{Kind: MsgArrayPart, Array: array, PartBlob: blob, Rotated: rotated}); err != nil {
			return err
		}
	}
	// No ack round-trip: the connection is ordered, so any later
	// ExecBlock is processed only after the partition is installed.
	return nil
}

// DistributeLocal range-partitions a DistArray along dim with the given
// boundaries and places partition i on executor i (space-local arrays).
func (m *Master) DistributeLocal(a *dsm.DistArray, dim int, boundaries []int64) error {
	m.recordArray(a)
	return m.broadcastParts(a.Name(), a.RangePartitions(dim, m.n, boundaries), false)
}

// DistributeRotated places time partition i on executor i; partitions
// rotate between executors during loop execution.
func (m *Master) DistributeRotated(a *dsm.DistArray, dim int, boundaries []int64) error {
	return m.DistributeRotatedAt(a, dim, boundaries, 0)
}

// DistributeRotatedAt distributes a rotated array as it stands at
// rotation phase: executor j receives time partition (j+phase) mod n —
// the placement the ring reaches after `phase` steps. Resuming a loop
// mid-pass from a checkpoint uses this so the re-formed ring starts in
// exactly the faulted run's configuration.
func (m *Master) DistributeRotatedAt(a *dsm.DistArray, dim int, boundaries []int64, phase int) error {
	m.recordArray(a)
	parts := a.RangePartitions(dim, m.n, boundaries)
	if phase%m.n != 0 {
		rotated := make([]*dsm.Partition, m.n)
		for j := 0; j < m.n; j++ {
			rotated[j] = parts[(j+phase)%m.n]
		}
		parts = rotated
	}
	return m.broadcastParts(a.Name(), parts, true)
}

// Serve keeps a DistArray on the master as a parameter-server array
// accessed via prefetch/update batches.
func (m *Master) Serve(a *dsm.DistArray) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.served[a.Name()] = a
}

// DistributeIterSpace partitions iteration samples by the space
// coordinate (key[spaceDim]) using the given partitioner and ships each
// block to its executor.
func (m *Master) DistributeIterSpace(samples []IterSample, spaceDim int, part *sched.Partitioner) error {
	blocks := make([][]IterSample, m.n)
	for _, s := range samples {
		w := part.PartOf(s.Key[spaceDim])
		blocks[w] = append(blocks[w], s)
	}
	for id, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgIterPart, Samples: blocks[id]}); err != nil {
			return err
		}
	}
	return nil
}

func (m *Master) recordArray(a *dsm.DistArray) {
	m.arrayDims[a.Name()] = a.Dims()
	m.arrayDense[a.Name()] = a.IsDense()
}

// LoopDef describes one distributed parallel for-loop execution.
type LoopDef struct {
	// Kernel is the registered kernel name.
	Kernel string
	// TimeDim is the iteration-space dimension partitioned in time
	// (-1 for 1D loops: each executor runs its whole local block once).
	TimeDim int
	// TimePart cuts the time dimension (must have n parts), nil for 1D.
	TimePart *sched.Partitioner
	// Rotate ships rotated arrays around the ring between steps.
	Rotate bool
	// Ordered selects the wavefront schedule (Fig. 7e): lexicographic
	// iteration order is preserved; time-dimension arrays must be
	// served (sharded) rather than rotated.
	Ordered bool
	// Passes is the number of full data passes.
	Passes int
	// StopPass, when > 0, stops execution at that pass boundary
	// (exclusive: passes [StartPass, StopPass) run) instead of running
	// to Passes. The driver's reconfiguration layer uses it to quiesce
	// the loop one segment at a time — re-cutting partitions or
	// re-forming the fleet between segments — and resume with StartPass.
	StopPass int
	// StartPass/StartStep resume execution mid-loop: the first executed
	// step is (StartPass, StartStep). Zero values run the loop from the
	// beginning. The caller must have distributed array state matching
	// that position (DistributeRotatedAt with phase StartStep).
	StartPass int
	StartStep int
	// Checkpoint, when non-nil, makes the master write coordinated
	// loop-boundary snapshots per the spec's policy.
	Checkpoint *CheckpointSpec
}

// ParallelFor executes the loop: per pass, n global steps of the
// unordered rotation schedule (Fig. 7f); executor j runs time partition
// (j + step) mod n at each step.
func (m *Master) ParallelFor(def LoopDef) error {
	passes := def.Passes
	if passes <= 0 {
		passes = 1
	}
	if def.StopPass > 0 && def.StopPass < passes {
		passes = def.StopPass
	}
	for pass := def.StartPass; pass < passes; pass++ {
		steps := m.n
		if def.TimeDim < 0 {
			steps = 1
		} else if def.Ordered {
			steps = 2*m.n - 1 // wavefront ramp-up and drain
		}
		s0 := 0
		if pass == def.StartPass {
			s0 = def.StartStep
		}
		for step := s0; step < steps; step++ {
			// The chaos harness (and any other observer) sees the clock
			// before the step's blocks are dispatched, so a fault
			// scripted "at clock c" lands before step c runs.
			if m.clockHook != nil {
				m.clockHook(m.clock.Load())
			}
			// Begin before the sends so executor block spans nest inside
			// the clock.step span in the emitted trace.
			stepStart := m.trace.Begin()
			for j := 0; j < m.n; j++ {
				msg := &Msg{
					Kind:      MsgExecBlock,
					LoopName:  def.Kernel,
					TimeDim:   def.TimeDim,
					Rotated:   def.Rotate,
					Ordered:   def.Ordered,
					Pass:      pass,
					StepIndex: step,
					// The served-consistency epoch: the clock value this
					// step completes at. Shard owners stage same-epoch
					// updates, so every block reads exactly its
					// step-start state however execution interleaves.
					Epoch: m.clock.Load() + 1,
				}
				switch {
				case def.TimeDim < 0:
					msg.TimeLo, msg.TimeHi = 0, 0
				case def.Ordered:
					tp := step - j
					if tp >= 0 && tp < m.n {
						lo, hi := def.TimePart.Bounds(tp)
						msg.TimeLo, msg.TimeHi = lo, hi
					} else {
						msg.TimeLo, msg.TimeHi = 0, 0 // idle ramp step
					}
				default:
					tp := (j + step) % m.n
					lo, hi := def.TimePart.Bounds(tp)
					msg.TimeLo, msg.TimeHi = lo, hi
				}
				if err := m.conns[j].send(msg); err != nil {
					m.trace.EndNN("clock.step", "master", stepStart, "pass", int64(pass), "step", int64(step))
					obs.Flight().Record(obs.FlightEvent{
						Kind: "worker.lost", Clock: m.clock.Load(),
						Loop: def.Kernel, Pass: pass, Step: step, Worker: j,
						Detail: err.Error(),
					})
					return fmt.Errorf("runtime: dispatch to executor %d failed (%v): %w", j, err, ErrWorkerLost)
				}
			}
			if err := m.stepBarrier(); err != nil {
				// End the span on the failure path too — a trace that
				// loses exactly the failing step is useless.
				m.trace.EndNN("clock.step", "master", stepStart, "pass", int64(pass), "step", int64(step))
				if errors.Is(err, ErrWorkerLost) {
					obs.Flight().Record(obs.FlightEvent{
						Kind: "worker.lost", Clock: m.clock.Load(),
						Loop: def.Kernel, Pass: pass, Step: step, Worker: -1,
						Detail: err.Error(),
					})
				}
				return err
			}
			m.clock.Add(1)
			m.trace.EndNN("clock.step", "master", stepStart, "pass", int64(pass), "step", int64(step))
			if m.checkpointDue(def, step, steps) {
				if err := m.writeCheckpoint(def, pass, step, steps); err != nil {
					return fmt.Errorf("runtime: checkpoint at clock %d: %w", m.clock.Load(), err)
				}
			}
		}
	}
	return nil
}

// stepStallFactor bounds how long a step barrier waits relative to the
// armed heartbeat timeout before declaring the step wedged. Heartbeats
// prove a worker process is alive, not that it is making progress: a
// desynchronized or half-delivered frame can leave a reader blocked
// forever while its heartbeat goroutine keeps pinging. The stall bound
// converts that wedge into a worker loss the recovery path handles.
const stepStallFactor = 10

// stepBarrier waits for every executor's BlockDone, surfacing executor
// errors and — when a heartbeat timeout is armed — workers that have
// gone silent even though their connections are still open, or steps
// that have stalled past stepStallFactor heartbeat timeouts with every
// worker still pinging (a wedged link, not a dead process).
func (m *Master) stepBarrier() error {
	start := time.Now()
	for done := 0; done < m.n; {
		if m.hbTimeout > 0 {
			select {
			case msg := <-m.ch.blockDone:
				m.noteBlockDone(msg)
				done++
			case err := <-m.ch.execErr:
				return err
			case <-time.After(m.hbTimeout / 2):
				now := time.Now().UnixNano()
				for id, seen := range m.lastSeen {
					if now-seen.Load() > int64(m.hbTimeout) {
						return fmt.Errorf("runtime: executor %d heartbeat stale (silent > %v): %w", id, m.hbTimeout, ErrWorkerLost)
					}
				}
				if time.Since(start) > stepStallFactor*m.hbTimeout {
					return fmt.Errorf("runtime: step stalled > %v with live heartbeats (wedged link): %w", stepStallFactor*m.hbTimeout, ErrWorkerLost)
				}
			}
			continue
		}
		select {
		case msg := <-m.ch.blockDone:
			m.noteBlockDone(msg)
			done++
		case err := <-m.ch.execErr:
			return err
		}
	}
	return nil
}

// noteBlockDone folds one executor's block stats into the prefetch-miss
// counter and the per-loop execution report.
func (m *Master) noteBlockDone(msg *Msg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.missCount += int64(msg.AccValue)
	if msg.LoopName == "" {
		return
	}
	r := m.reports[msg.LoopName]
	if r == nil {
		r = &obs.LoopReport{Loop: msg.LoopName}
		m.reports[msg.LoopName] = r
	}
	r.Add(obs.WorkerStats{
		Worker:    msg.ExecutorID,
		Blocks:    1,
		Iters:     msg.StatIters,
		ComputeNs: msg.StatComputeNs,
		RotWaitNs: msg.StatRotWaitNs,
		CommNs:    msg.StatCommNs,
	})
}

// Report returns a copy of the execution report accumulated for one
// loop (nil if the loop has not run).
func (m *Master) Report(loop string) *obs.LoopReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.reports[loop]
	if r == nil {
		return nil
	}
	out := &obs.LoopReport{Loop: r.Loop}
	out.Merge(r)
	return out
}

// CombinedReport merges every loop's report into one (nil when nothing
// has run). Useful for drivers that define a fresh loop per pass.
func (m *Master) CombinedReport() *obs.LoopReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.reports) == 0 {
		return nil
	}
	names := make([]string, 0, len(m.reports))
	for name := range m.reports {
		names = append(names, name)
	}
	sort.Strings(names)
	out := &obs.LoopReport{Loop: names[0]}
	if len(names) > 1 {
		out.Loop = fmt.Sprintf("%s (+%d more)", names[0], len(names)-1)
	}
	for _, name := range names {
		out.Merge(m.reports[name])
	}
	return out
}

// AllReports returns a copy of every loop's execution report, sorted
// by loop name (the machine-readable export behind orion-run
// -report-json and the /report endpoint).
func (m *Master) AllReports() []*obs.LoopReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.reports))
	for name := range m.reports {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*obs.LoopReport, 0, len(names))
	for _, name := range names {
		r := &obs.LoopReport{Loop: name}
		r.Merge(m.reports[name])
		out = append(out, r)
	}
	return out
}

// Misses returns the cumulative number of prefetch-miss slow-path
// fetches executors reported — zero when bulk prefetching covers every
// read (exposed for tests and the Section 6.3 prefetch experiment).
func (m *Master) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.missCount
}

// Gather collects an array's partitions from all executors and merges
// them into a fresh DistArray.
func (m *Master) Gather(array string) (*dsm.DistArray, error) {
	dims, ok := m.arrayDims[array]
	if !ok {
		return nil, fmt.Errorf("runtime: gather of unknown array %q", array)
	}
	for i, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgGather, Array: array}); err != nil {
			// A send failing on a registered worker conn means that
			// worker is gone (crashed, or its link was condemned as
			// corrupt) — recoverable, exactly like a loss mid-step.
			return nil, fmt.Errorf("runtime: gather send to executor %d failed (%v): %w", i, err, ErrWorkerLost)
		}
	}
	var out *dsm.DistArray
	if m.arrayDense[array] {
		out = dsm.NewDense(array, dims...)
	} else {
		out = dsm.NewSparse(array, dims...)
	}
	for i := 0; i < m.n; i++ {
		select {
		case msg := <-m.ch.gatherResp:
			p, err := dsm.DecodePartition(msg.PartBlob)
			if err != nil {
				return nil, err
			}
			p.WriteBack(out)
		case err := <-m.ch.execErr:
			return nil, err
		}
	}
	return out, nil
}

// ServedArray returns the master-resident copy of a served array, with
// every staged update folded in.
func (m *Master) ServedArray(name string) *dsm.DistArray {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.foldServed(name, 0)
	return m.served[name]
}

// foldServed applies staged updates to a master-held served array from
// epochs before the reader's, in the deterministic order of foldStaged;
// epoch <= 0 folds everything. Caller holds m.mu.
func (m *Master) foldServed(name string, epoch int64) {
	arr := m.served[name]
	if arr == nil {
		return
	}
	m.servedPending[name] = foldStaged(m.servedPending[name], epoch, m.servedSeen[name],
		func(off int64, v float64, absolute bool) {
			if absolute {
				arr.SetAt(v, arr.Unflatten(off)...)
			} else {
				arr.AddAt(v, arr.Unflatten(off)...)
			}
		})
}

// AccumSum aggregates an accumulator across executors with +.
func (m *Master) AccumSum(name string) (float64, error) {
	for i, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgAccumQuery, AccName: name}); err != nil {
			return 0, fmt.Errorf("runtime: accum query send to executor %d failed (%v): %w", i, err, ErrWorkerLost)
		}
	}
	var total float64
	for i := 0; i < m.n; i++ {
		select {
		case msg := <-m.ch.accumResp:
			total += msg.AccValue
		case err := <-m.ch.execErr:
			return 0, err
		}
	}
	return total, nil
}

// Shutdown stops all executors with the shutdown handshake.
func (m *Master) Shutdown() {
	m.closed.Store(true)
	for _, c := range m.conns {
		if c == nil {
			continue
		}
		c.send(&Msg{Kind: MsgShutdown})
		c.close()
	}
}

// DefineLoop ships a loop definition to every executor, which compiles
// it into a kernel via the installed LoopCompiler. The declared array
// extents also configure the wire-integrity layer: the raw-frame
// element cap is raised to cover the largest declared array, so header
// bounds track the fleet's actual configuration instead of a blanket
// ceiling.
func (m *Master) DefineLoop(def *Msg) error {
	def.Kind = MsgDefineLoop
	raiseElemCapFromDims(def.ArrayDims)
	for _, c := range m.conns {
		if err := c.send(def); err != nil {
			return err
		}
	}
	return nil
}

// DistributeServed range-shards a parameter-server array along its last
// dimension across all executors (Section 4.4: served arrays live on "a
// number of server processes"). Executors answer each other's prefetch
// and update batches peer-to-peer; the master only records metadata for
// Gather.
func (m *Master) DistributeServed(a *dsm.DistArray) error {
	m.recordArray(a)
	lastDim := a.NumDims() - 1
	boundaries := make([]int64, 0, m.n-1)
	for k := 1; k < m.n; k++ {
		boundaries = append(boundaries, a.Dims()[lastDim]*int64(k)/int64(m.n))
	}
	parts := a.RangePartitions(lastDim, m.n, boundaries)
	for id, p := range parts {
		blob, err := p.Encode()
		if err != nil {
			return err
		}
		msg := &Msg{
			Kind:      MsgServedShard,
			Array:     a.Name(),
			PartBlob:  blob,
			Offsets:   boundaries,
			ArrayDims: map[string][]int64{a.Name(): a.Dims()},
		}
		if err := m.conns[id].send(msg); err != nil {
			return err
		}
	}
	// Peers read each other's shards as soon as their own blocks start,
	// so wait until every executor has installed its shard.
	for i := 0; i < m.n; i++ {
		select {
		case <-m.ch.ackCh:
		case err := <-m.ch.execErr:
			return err
		}
	}
	return nil
}
