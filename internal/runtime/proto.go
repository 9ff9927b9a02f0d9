package runtime

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// MsgKind enumerates protocol messages.
type MsgKind int

const (
	// MsgHello: executor → master registration.
	MsgHello MsgKind = iota
	// MsgSetup: master → executor topology (peer addresses).
	MsgSetup
	// MsgArrayPart: master → executor: hold this array partition.
	MsgArrayPart
	// MsgServedShard: master → executor: serve this shard of a
	// parameter-server array to your peers.
	MsgServedShard
	// MsgIterPart: master → executor: your iteration-space samples.
	MsgIterPart
	// MsgExecBlock: master → executor: run kernel over your samples
	// whose time coordinate falls in [TimeLo, TimeHi).
	MsgExecBlock
	// MsgBlockDone: executor → master.
	MsgBlockDone
	// MsgRotate: executor → executor: a rotated array partition.
	MsgRotate
	// MsgPrefetch: executor → master: bulk read of served-array
	// elements.
	MsgPrefetch
	// MsgPrefetchResp: master → executor.
	MsgPrefetchResp
	// MsgUpdateBatch: executor → master: buffered writes to a served
	// array.
	MsgUpdateBatch
	// MsgGather: master → executor: send your partition of Array back.
	MsgGather
	// MsgGatherResp: executor → master.
	MsgGatherResp
	// MsgAccumQuery / MsgAccumResp: accumulator aggregation.
	MsgAccumQuery
	MsgAccumResp
	// MsgDefineLoop: master → executor: compile a DSL loop into a
	// kernel under LoopName (the runtime analogue of Orion defining
	// generated loop-body functions in its workers during macro
	// expansion).
	MsgDefineLoop
	// MsgShutdown: master → executor.
	MsgShutdown
	// MsgAck: generic acknowledgment.
	MsgAck
	// MsgError: either direction; aborts the operation.
	MsgError
	// MsgPing: executor → master heartbeat. Carries no payload; the
	// master refreshes the sender's liveness timestamp on receipt (as it
	// does for every message).
	MsgPing
	// MsgTraceSync: master ↔ executor clock-offset handshake. The
	// request carries the master's wall clock in T0 (unix nanoseconds);
	// the reply echoes T0 and adds the executor's wall clock in T1. The
	// master applies the midpoint method over several pings to estimate
	// the per-worker clock offset used when merging shipped spans.
	MsgTraceSync
	// MsgTraceDump: master → executor request for the executor's
	// not-yet-shipped trace spans (TracerID identifies the master's
	// tracer so in-process executors sharing it reply empty); the
	// executor → master reply carries a gob-encoded obs.TraceDump in
	// TraceBlob.
	MsgTraceDump
)

// Msg is the single wire message type (gob encodes nil/zero fields
// compactly).
type Msg struct {
	Kind MsgKind

	// Hello / Setup. A hello with ExecutorID -1 asks the master to
	// assign a free id (reported back in the setup message — used by
	// rejoining workers after a recovery re-forms the fleet).
	// HeartbeatMs, when non-zero, tells the executor to send MsgPing
	// every that many milliseconds.
	ExecutorID  int
	PeerAddr    string
	Peers       []string // indexed by executor id
	NumExecs    int
	HeartbeatMs int

	// Array payloads: a partition in the dsm partition layout
	// (dsm.MarshalPartition) or raw samples.
	Array    string
	PartBlob []byte
	Samples  []IterSample
	Rotated  bool
	Ordered  bool
	// part is the partition a rotation frame decoded (MsgRotate only;
	// gob never sees unexported fields). Dense storage comes from
	// bufpool: whoever installs the partition owns returning it.
	part      *dsm.Partition
	LoopName  string
	TimeLo    int64
	TimeHi    int64
	TimeDim   int
	Pass      int
	StepIndex int

	// Served arrays. Absolute marks an update batch carrying final
	// values (last-write-wins) rather than additive deltas. Epoch is the
	// served-consistency clock of the block issuing the read or update:
	// owners stage incoming updates and fold a batch into the shard only
	// once a read from a *later* epoch arrives, so every block observes
	// exactly the state at its step's start — independent of how block
	// execution interleaves across executors. A read with Epoch 0 folds
	// everything (gathers, legacy raw RPCs).
	Offsets  []int64
	Values   []float64
	Absolute bool
	Epoch    int64

	// Accumulators.
	AccName  string
	AccValue float64

	// BlockDone execution stats: where the executor's wall-clock went
	// during the block. The master folds these into the per-loop
	// execution report (obs.LoopReport).
	StatIters     int64
	StatComputeNs int64
	StatRotWaitNs int64
	StatCommNs    int64

	// DefineLoop payload: the loop source, the serialized plan artifact
	// (binary internal/plan encoding — carries the strategy, the
	// materialized partitions, and the synthesized prefetch spec, so
	// executors re-derive nothing), the declared arrays/buffers,
	// captured driver globals, and accumulator names. Backend selects
	// the loop execution backend: "" (bytecode VM with interpreter
	// fallback), "vm" (fallback is an error), or "interp".
	LoopSrc     string
	PlanBlob    []byte
	ArrayDims   map[string][]int64
	Buffers     map[string]string
	GlobalNames []string
	GlobalVals  []float64
	AccumNames  []string
	Backend     string

	// Errors. Lost marks an executor-reported error caused by a broken
	// connection (ring neighbor or shard owner unreachable) rather than
	// a kernel failure; the master folds it into ErrWorkerLost so the
	// recovery path can distinguish transport loss from program bugs.
	Err  string
	Lost bool

	// Trace collection. Trace (in MsgSetup) tells a worker process to
	// enable span tracing so its rings can be collected later. T0/T1
	// carry the clock-sync handshake timestamps (unix nanoseconds),
	// TracerID identifies a tracer across processes, and TraceBlob is a
	// gob-encoded obs.TraceDump.
	Trace     bool
	T0        int64
	T1        int64
	TracerID  int64
	TraceBlob []byte
}

// reset clears a Msg for reuse while keeping the backing storage of the
// hot-path payload slices (Offsets/Values), so a long-lived
// serving loop can decode into the same Msg without reallocating per
// message. Explicit zeroing matters: gob leaves fields absent from the
// wire unchanged on decode.
func (m *Msg) reset() {
	offsets := m.Offsets[:0]
	values := m.Values[:0]
	*m = Msg{Offsets: offsets, Values: values}
}

// IterSample is one iteration-space element shipped to an executor.
type IterSample struct {
	Key []int64
	Val float64
}

// Frame tags: every message on a codec stream is one tag byte followed
// by its body. 'G' frames carry a length-prefixed gob-encoded Msg; 'R'
// frames carry one rotated partition (dense or sparse) in the dsm
// partition layout, decoded straight into pooled partition storage
// with no intermediate blob. Both frames carry a per-direction sequence
// number right after the tag and end in a CRC32C trailer over
// everything after the tag byte — the checksum catches flipped or
// truncated bytes, the sequence number catches duplicated or reordered
// frames that are individually intact.
const (
	tagGob = 'G'
	tagRaw = 'R'
)

// Frame integrity bounds. A decoder trusts nothing it has not verified:
// uvarint header fields are capped before any allocation or blocking
// read sized by them (the partition layout's own bounds are checked by
// dsm's decoder), and the payload element cap is keyed to the fleet
// configuration (raised to the largest declared array when a loop is
// defined) rather than a blanket "anything under 16 GiB".
const (
	// frameTrailerLen is the CRC32C trailer size.
	frameTrailerLen = 4
	// maxGobFrameLen caps a gob frame's body ('G' frames carry control
	// messages and partition blobs, never larger than an array).
	maxGobFrameLen = 1 << 30
	// defaultRawElemCap bounds raw payloads before any loop has been
	// defined (handshakes, benches); DefineLoop raises the live cap to
	// the largest declared array.
	defaultRawElemCap = 1 << 20
	// hardRawElemCap is the absolute ceiling no configuration can raise
	// the element cap past (2^34 float64s = 128 GiB).
	hardRawElemCap = 1 << 34
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rawElemCap is the live raw-frame element cap: zero means
// defaultRawElemCap. It is raised — never lowered — from declared array
// extents at DefineLoop on both the master and executor sides, so
// concurrent sessions in one process can only widen each other's bound.
var rawElemCap atomic.Int64

// RaiseFrameElemCap widens the raw-frame element cap to at least n
// (clamped to the hard ceiling). The cap is monotonic: lowering it
// would race between sessions sharing the process.
func RaiseFrameElemCap(n int64) {
	if n > hardRawElemCap {
		n = hardRawElemCap
	}
	for {
		cur := rawElemCap.Load()
		if n <= cur {
			return
		}
		if rawElemCap.CompareAndSwap(cur, n) {
			return
		}
	}
}

func frameElemCap() int64 {
	if v := rawElemCap.Load(); v > defaultRawElemCap {
		return v
	}
	return defaultRawElemCap
}

// raiseElemCapFromDims raises the element cap to cover the largest
// array in a DefineLoop declaration — a rotated partition is at most a
// whole array.
func raiseElemCapFromDims(dims map[string][]int64) {
	for _, ds := range dims {
		n := int64(1)
		for _, d := range ds {
			if d <= 0 {
				continue
			}
			if n > hardRawElemCap/d {
				n = hardRawElemCap
				break
			}
			n *= d
		}
		RaiseFrameElemCap(n)
	}
}

// FrameCorruptError reports a frame that failed wire-integrity
// verification: a checksum mismatch, an out-of-sequence (duplicated or
// reordered) frame, a header field past its bound, or trailing garbage.
// The codec closes the connection before returning it — a desynchronized
// stream cannot be re-trusted — and the error unwraps to ErrWorkerLost,
// so every recovery path treats a poisoned link exactly like a lost
// worker: condemn the connection, re-form the fleet, restore the newest
// checkpoint, resume.
type FrameCorruptError struct {
	Label  string // peer label, when the codec has one
	Reason string
}

func (e *FrameCorruptError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("runtime: corrupt frame on %s: %s", e.Label, e.Reason)
	}
	return fmt.Sprintf("runtime: corrupt frame: %s", e.Reason)
}

// Unwrap folds frame corruption into the worker-loss recovery path.
func (e *FrameCorruptError) Unwrap() error { return ErrWorkerLost }

// codec wraps a connection with tag-framed, checksummed gob
// encode/decode and a write lock so multiple goroutines may send on the
// same connection. stats, when set, counts messages per peer (atomic
// increments — allocation-free).
type codec struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	enc   *gob.Encoder
	dec   *gob.Decoder
	wmu   sync.Mutex
	stats *obs.PeerStats
	label string
	// wseq/rseq are the per-direction frame sequence numbers: wseq is
	// stamped under wmu on send, rseq checked by the (single) reader.
	wseq uint64
	rseq uint64
	// gw stages gob-encoded bodies so frames can be length-prefixed and
	// checksummed; gr replays one verified frame body to the decoder.
	gw frameBuffer
	gr frameReader
	// Send side (guarded by wmu): wbuf stages gob frame headers and
	// whole 'R' frames, so it grows to the largest partition sent and
	// then stops allocating. Receive side: psrc checksums every header
	// byte read after the tag and feeds an 'R' frame's layout to pdec,
	// whose pooled storage and interned names keep the steady-state
	// rotation path allocation-light. Send and receive need separate
	// state, because a codec may do both concurrently (the master
	// link).
	wbuf []byte
	psrc frameSource
	pdec *dsm.Decoder
}

// frameSource reads a frame's fields from the codec's buffered reader,
// checksumming exactly the bytes read (so a non-canonical encoding is
// checked as sent), and is the dsm.Source of an 'R' frame's layout,
// staging Next's bytes in a buffer kept across frames. err records an
// I/O failure, telling a dead peer apart from malformed bytes.
type frameSource struct {
	br    *bufio.Reader
	crc   uint32
	err   error
	one   [1]byte
	stage []byte
}

// start begins a frame: the checksum covers everything after the tag.
func (s *frameSource) start() {
	s.crc, s.err = 0, nil
}

func (s *frameSource) ReadByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err != nil {
		s.err = err
		return 0, err
	}
	s.one[0] = b
	s.crc = crc32.Update(s.crc, castagnoli, s.one[:])
	return b, nil
}

func (s *frameSource) Next(n int) ([]byte, error) {
	if cap(s.stage) < n {
		s.stage = make([]byte, n)
	}
	b := s.stage[:n]
	if _, err := io.ReadFull(s.br, b); err != nil {
		s.err = err
		return nil, err
	}
	s.crc = crc32.Update(s.crc, castagnoli, b)
	return b, nil
}

// frameBuffer is the gob encoder's staging sink: one Encode call's
// output accumulates here, then ships as a single checksummed frame.
type frameBuffer struct{ buf []byte }

func (b *frameBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// frameReader replays one verified frame body to the gob decoder. It
// implements io.ByteReader so gob reads it directly instead of wrapping
// it in a bufio.Reader that would buffer across frames.
type frameReader struct {
	data []byte
	pos  int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func (r *frameReader) ReadByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func newCodec(conn net.Conn) *codec {
	c := &codec{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	c.enc = gob.NewEncoder(&c.gw)
	c.dec = gob.NewDecoder(&c.gr)
	c.psrc.br = c.br
	c.pdec = dsm.NewDecoder(bufpool.GetF64)
	return c
}

// newPeerCodec builds a codec whose traffic is counted under the given
// peer label in the default obs registry: message counts at the codec
// layer, byte counts via a countingConn wrapped around the connection.
func newPeerCodec(conn net.Conn, label string) *codec {
	stats := obs.Peer(label)
	c := newCodec(&countingConn{Conn: conn, stats: stats})
	c.stats = stats
	c.label = label
	return c
}

// condemn reports an integrity violation on this connection. The stream
// may be desynchronized, so it cannot be re-trusted: the connection is
// closed (both ends unwind), the corruption is counted and
// flight-logged, and the typed error — which unwraps to ErrWorkerLost —
// hands the link to the checkpoint-recovery machinery.
func (c *codec) condemn(reason string) error {
	obs.GetCounter("runtime.frame_corrupt").Inc()
	label := c.label
	if label == "" {
		label = "link"
	}
	obs.Flight().Record(obs.FlightEvent{
		Kind: "link.corrupt", Clock: -1, Pass: -1, Step: -1, Worker: -1,
		Detail: label + ": " + reason,
	})
	_ = c.conn.Close()
	return &FrameCorruptError{Label: c.label, Reason: reason}
}

// readUvarint reads one checksummed frame header field. Bytes that
// arrived but do not form a uvarint can only come from a hostile or
// damaged stream and condemn the link; an I/O failure (the peer died
// mid-frame) is returned as it is.
func (c *codec) readUvarint() (uint64, error) {
	x, err := binary.ReadUvarint(&c.psrc)
	if err != nil && c.psrc.err == nil {
		return 0, c.condemn("malformed uvarint")
	}
	return x, err
}

func (c *codec) send(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.gw.buf = c.gw.buf[:0]
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	body := c.gw.buf
	h := binary.AppendUvarint(append(c.wbuf[:0], tagGob), c.wseq)
	c.wseq++
	h = binary.AppendUvarint(h, uint64(len(body)))
	c.wbuf = h[:0]
	if _, err := c.bw.Write(h); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	var tr [frameTrailerLen]byte
	crc := crc32.Update(crc32.Update(0, castagnoli, h[1:]), castagnoli, body)
	binary.LittleEndian.PutUint32(tr[:], crc)
	if _, err := c.bw.Write(tr[:]); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.MsgsSent.Inc()
	}
	return nil
}

func (c *codec) recv() (*Msg, error) {
	var m Msg
	if err := c.decodeFrame(&m); err != nil {
		return nil, err
	}
	if c.stats != nil {
		c.stats.MsgsRecv.Inc()
	}
	return &m, nil
}

// recvInto decodes the next message into a caller-owned Msg, reusing
// its payload slice storage. The caller must not retain pointers into
// the Msg across calls (copy anything it keeps — see servePeer's
// rotation handling). Raw rotation frames are the exception by design:
// their Values payload arrives in fresh pooled storage whose ownership
// the caller takes over (and later returns via bufpool.PutF64).
func (c *codec) recvInto(m *Msg) error {
	m.reset()
	if err := c.decodeFrame(m); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.MsgsRecv.Inc()
	}
	return nil
}

// decodeFrame reads one tag-framed message into m, verifying the
// frame's checksum and sequence number before any of its payload is
// released to the caller.
func (c *codec) decodeFrame(m *Msg) error {
	tag, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	switch tag {
	case tagGob:
		return c.readGobFrame(m)
	case tagRaw:
		return c.readPartitionFrame(m)
	default:
		return c.condemn(fmt.Sprintf("unknown frame tag %#x", tag))
	}
}

// readGobFrame reads one length-prefixed gob frame (tag already
// consumed), verifies its CRC32C trailer and sequence number, and only
// then lets the gob decoder touch the body.
func (c *codec) readGobFrame(m *Msg) error {
	c.psrc.start()
	seq, err := c.readUvarint()
	if err != nil {
		return err
	}
	length, err := c.readUvarint()
	if err != nil {
		return err
	}
	if length > maxGobFrameLen {
		return c.condemn(fmt.Sprintf("gob frame length %d exceeds the %d cap", length, maxGobFrameLen))
	}
	if uint64(cap(c.gr.data)) >= length {
		// Steady state: the body buffer already fits — one read, no
		// allocation.
		c.gr.data = c.gr.data[:length]
		if _, err := io.ReadFull(c.br, c.gr.data); err != nil {
			return err
		}
	} else {
		// First growth (or a hostile length claim): extend the buffer
		// chunk by chunk as bytes actually arrive, so a forged header
		// can cost at most one chunk of memory beyond what the peer
		// really sent.
		c.gr.data = c.gr.data[:0]
		for remaining := length; remaining > 0; {
			n := remaining
			if n > frameReadChunk {
				n = frameReadChunk
			}
			old := len(c.gr.data)
			c.gr.data = append(c.gr.data, make([]byte, n)...)
			if _, err := io.ReadFull(c.br, c.gr.data[old:]); err != nil {
				return err
			}
			remaining -= n
		}
	}
	if err := c.verifyTrailer("gob", crc32.Update(c.psrc.crc, castagnoli, c.gr.data), seq); err != nil {
		return err
	}
	c.gr.pos = 0
	if err := c.dec.Decode(m); err != nil {
		return c.condemn(fmt.Sprintf("gob decode of a verified frame: %v", err))
	}
	if c.gr.pos != len(c.gr.data) {
		return c.condemn(fmt.Sprintf("%d trailing bytes after the gob value", len(c.gr.data)-c.gr.pos))
	}
	return nil
}

// frameReadChunk bounds how much a gob frame body buffer grows per
// read while the claimed length is still unverified by arrived bytes.
const frameReadChunk = 1 << 20

// verifyTrailer reads a frame's CRC32C trailer and checks it against
// the computed checksum, then checks the frame's sequence number.
func (c *codec) verifyTrailer(kind string, crc uint32, seq uint64) error {
	var tr [frameTrailerLen]byte
	if _, err := io.ReadFull(c.br, tr[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != crc {
		return c.condemn(fmt.Sprintf("%s frame checksum mismatch (wire %08x, computed %08x)", kind, got, crc))
	}
	if seq != c.rseq {
		return c.condemn(fmt.Sprintf("frame out of sequence (got %d, want %d): duplicated or reordered delivery", seq, c.rseq))
	}
	c.rseq++
	return nil
}

// sendRotation ships one rotated partition to the peer as an 'R' frame:
// tag · sequence number · partition layout · CRC32C, assembled in the
// codec's reusable send buffer (no per-message allocation once it has
// grown to the partition's size). Returns the frame's wire size.
func (c *codec) sendRotation(p *dsm.Partition) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	f := dsm.AppendPartition(binary.AppendUvarint(append(c.wbuf[:0], tagRaw), c.wseq), p)
	c.wseq++
	f = binary.LittleEndian.AppendUint32(f, crc32.Update(0, castagnoli, f[1:]))
	c.wbuf = f[:0]
	if _, err := c.bw.Write(f); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if c.stats != nil {
		c.stats.MsgsSent.Inc()
	}
	return int64(len(f)), nil
}

// readPartitionFrame decodes an 'R' frame (tag already consumed) into
// m.part. dsm's decoder bounds-checks the layout against the live
// element cap before sizing anything by it, dense storage comes from
// bufpool, and the partition stays codec-internal until the CRC trailer
// and sequence number verify — a corrupt frame's storage goes back to
// the pool, never to the caller, so it can never be installed.
func (c *codec) readPartitionFrame(m *Msg) error {
	c.psrc.start()
	seq, err := c.readUvarint()
	if err != nil {
		return err
	}
	p, err := c.pdec.Decode(&c.psrc, frameElemCap())
	if err != nil {
		var le *dsm.LayoutError
		if errors.As(err, &le) {
			return c.condemn("partition frame: " + le.Reason)
		}
		return err
	}
	if err := c.verifyTrailer("partition", c.psrc.crc, seq); err != nil {
		if data, _ := p.Local.DenseData(); data != nil {
			bufpool.PutF64(data)
		}
		return err
	}
	m.Kind = MsgRotate
	m.Array = p.Array
	m.part = p
	return nil
}

func (c *codec) close() error { return c.conn.Close() }
