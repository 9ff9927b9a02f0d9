package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"orion/internal/dsm"
)

// recordConn captures every underlying write as one frame: the codec
// flushes once per message, and test frames stay under the bufio
// buffer size, so each Write call is exactly one wire frame.
type recordConn struct {
	noopConn
	frames [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.frames = append(c.frames, append([]byte(nil), p...))
	return len(p), nil
}

// replayConn feeds a canned byte stream to a codec and discards writes.
type replayConn struct {
	noopConn
	r *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error) { return len(p), nil }

type noopConn struct{}

func (noopConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (noopConn) Write(p []byte) (int, error)        { return len(p), nil }
func (noopConn) Close() error                       { return nil }
func (noopConn) LocalAddr() net.Addr                { return noopAddr{} }
func (noopConn) RemoteAddr() net.Addr               { return noopAddr{} }
func (noopConn) SetDeadline(t time.Time) error      { return nil }
func (noopConn) SetReadDeadline(t time.Time) error  { return nil }
func (noopConn) SetWriteDeadline(t time.Time) error { return nil }

type noopAddr struct{}

func (noopAddr) Network() string { return "noop" }
func (noopAddr) String() string  { return "noop" }

// captureFrames runs fn against a codec whose writes are recorded and
// returns the emitted wire frames.
func captureFrames(fn func(c *codec)) [][]byte {
	rec := &recordConn{}
	fn(newCodec(rec))
	return rec.frames
}

// decodeStream replays a byte stream through a fresh codec and returns
// the first decode error (nil if every frame decoded cleanly). Pooled
// rotation storage is returned to the pool as it arrives.
func decodeStream(stream []byte, frames int) error {
	c := newCodec(&replayConn{r: bytes.NewReader(stream)})
	var m Msg
	for i := 0; i < frames; i++ {
		if err := c.recvInto(&m); err != nil {
			return err
		}
		releasePart(&m)
	}
	return nil
}

// rotationFrame is the 'R' frame of a 6x32 array "w", dense or with
// every other element stored sparse.
func rotationFrame(t *testing.T, sparse bool) []byte {
	t.Helper()
	a, step := dsm.NewDense("w", 6, 32), int64(1)
	if sparse {
		a, step = dsm.NewSparse("w", 6, 32), 2
	}
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 32; j += step {
			a.SetAt(float64(i*32+j)+0.5, i, j)
		}
	}
	p := a.ExtractRange(1, 0, 32)
	frames := captureFrames(func(c *codec) {
		if _, err := c.sendRotation(p); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 1 {
		t.Fatalf("rotation produced %d frames, want 1", len(frames))
	}
	return frames[0]
}

// TestFrameChecksumRejectsCorruptRawRotation: any single flipped bit in
// a rotation frame, dense or sparse — header or payload, offsets or
// values — must surface as a typed *FrameCorruptError, never as a
// decoded partition.
func TestFrameChecksumRejectsCorruptRawRotation(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		frame := rotationFrame(t, sparse)
		if err := decodeStream(frame, 1); err != nil {
			t.Fatalf("sparse=%v: intact frame rejected: %v", sparse, err)
		}
		// Header bits, then payload bits safely past the ~15-byte header
		// of array "w" (in the sparse frame, 8*32 is inside an offset
		// word and 8*100 inside a value), then the trailer.
		for _, bit := range []int{8*4 + 1, 8 * 32, 8 * 100, len(frame)*8 - 12} {
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << uint(bit%8)
			err := decodeStream(mut, 1)
			var fc *FrameCorruptError
			if !errors.As(err, &fc) {
				t.Fatalf("sparse=%v, bit %d flipped: err = %v, want *FrameCorruptError", sparse, bit, err)
			}
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("sparse=%v, bit %d flipped: corruption does not unwrap to ErrWorkerLost", sparse, bit)
			}
		}
	}
}

// TestFrameChecksumRejectsCorruptGobFrame repeats the flip check for
// the gob message framing.
func TestFrameChecksumRejectsCorruptGobFrame(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		if err := c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 3, Array: "weights"}); err != nil {
			t.Error(err)
		}
	})
	frame := frames[0]
	mut := append([]byte(nil), frame...)
	mut[len(mut)/2] ^= 0x10
	err := decodeStream(mut, 1)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError", err)
	}
	if !strings.Contains(fc.Reason, "checksum") && !strings.Contains(fc.Reason, "decode") {
		t.Fatalf("unexpected corruption reason: %q", fc.Reason)
	}
}

// TestFrameSequenceRejectsDuplicatedFrame: a bitwise-identical replay
// of a valid frame passes the CRC but carries a consumed sequence
// number — the codec must condemn the link, not process it twice.
func TestFrameSequenceRejectsDuplicatedFrame(t *testing.T) {
	frame := rotationFrame(t, false)
	stream := append(append([]byte(nil), frame...), frame...)
	err := decodeStream(stream, 2)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError on the replayed frame", err)
	}
	if !strings.Contains(fc.Reason, "sequence") {
		t.Fatalf("replay rejected for the wrong reason: %q", fc.Reason)
	}
}

// TestFrameSequenceRejectsReorderedFrames: two frames delivered in
// swapped order are both individually valid, but the successor's
// sequence number arrives early — condemned before anything decodes.
func TestFrameSequenceRejectsReorderedFrames(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		if err := c.send(&Msg{Kind: MsgPing, ExecutorID: 1}); err != nil {
			t.Error(err)
		}
		if err := c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 1}); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 2 {
		t.Fatalf("captured %d frames, want 2", len(frames))
	}
	stream := append(append([]byte(nil), frames[1]...), frames[0]...)
	err := decodeStream(stream, 2)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError on out-of-order delivery", err)
	}
	if !strings.Contains(fc.Reason, "sequence") {
		t.Fatalf("reorder rejected for the wrong reason: %q", fc.Reason)
	}
}

// TestFrameHeaderBoundsRejectHostileClaims: forged headers claiming
// absurd sizes must be rejected by the bounds checks before anything
// is allocated or read at the claimed size.
func TestFrameHeaderBoundsRejectHostileClaims(t *testing.T) {
	cases := map[string][]byte{
		"unknown tag": {0x7a, 0, 0, 0},
		"name length": uv(uv([]byte{tagRaw}, 0), 1<<20),
		"rank": uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 32), dsm.MaxRank+1), 1),
		"extent overflow": uv(uv(uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 32), 3), 32), 1<<35), 1<<35),
		"element count": uv(append(uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 1<<33), 1), 1<<33), 0), 1<<33),
		"gob length":       uv(uv([]byte{tagGob}, 0), maxGobFrameLen+1),
		"malformed varint": append([]byte{tagGob}, bytes.Repeat([]byte{0x80}, 11)...),
	}
	for name, frame := range cases {
		err := decodeStream(frame, 1)
		var fc *FrameCorruptError
		if !errors.As(err, &fc) {
			t.Errorf("%s: err = %v, want *FrameCorruptError", name, err)
		}
	}
}

// TestHostileGobLengthClaimAllocatesLazily: a forged gob header
// claiming a near-cap body over a short stream must fail on EOF after
// at most one growth chunk — not allocate the full claimed length.
func TestHostileGobLengthClaimAllocatesLazily(t *testing.T) {
	frame := uv(uv([]byte{tagGob}, 0), maxGobFrameLen-1)
	c := newCodec(&replayConn{r: bytes.NewReader(frame)})
	var m Msg
	if err := c.recvInto(&m); err == nil {
		t.Error("truncated hostile frame decoded successfully")
	}
	if grown := cap(c.gr.data); grown > 2*frameReadChunk {
		t.Fatalf("hostile length claim grew the body buffer to %d bytes, want <= %d", grown, 2*frameReadChunk)
	}
}

func uv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// TestServeUpdateDuplicateDeliveryIdempotent is the state-layer
// idempotence backstop: a replayed update batch (same sender, same
// epoch, same kind) stages once, so folding applies it once — while
// distinct epochs from the same sender accumulate normally.
func TestServeUpdateDuplicateDeliveryIdempotent(t *testing.T) {
	a := dsm.NewDense("w", 4, 8)
	local := a.ExtractRange(1, 0, 8)
	s := newShardSet(nil, 0)
	s.install("w", []int64{4, 8}, nil, local)

	offs := []int64{0, 5, 9}
	vals := []float64{1, 2, 3}
	// Deliver the batch, then its duplicate (a FaultDuplicate'd frame
	// that somehow survived transport, or a retried flush).
	for i := 0; i < 2; i++ {
		if err := s.serveUpdate("w", 2, offs, vals, false, 5); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.serveRead("w", offs, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got[i] != want {
			t.Fatalf("offset %d = %v after duplicate delivery, want %v (applied once)", offs[i], got[i], want)
		}
	}

	// A later epoch from the same sender is new work, not a replay.
	if err := s.serveUpdate("w", 2, offs, vals, false, 6); err != nil {
		t.Fatal(err)
	}
	got, err = s.serveRead("w", offs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got[i] != 2*want {
			t.Fatalf("offset %d = %v after a second epoch, want %v", offs[i], got[i], 2*want)
		}
	}

	// Absolute and additive batches of the same epoch are distinct
	// deliveries: an absolute write is not a replay of a delta.
	if err := s.serveUpdate("w", 2, []int64{0}, []float64{42}, true, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.serveUpdate("w", 2, []int64{0}, []float64{1}, false, 8); err != nil {
		t.Fatal(err)
	}
	got, err = s.serveRead("w", []int64{0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 43 {
		t.Fatalf("absolute+delta at one epoch = %v, want 43", got[0])
	}
}

// FuzzDecodeFrame drives the hardened frame decoder with arbitrary
// byte streams: it must return an error or a valid message — never
// panic, never hang, never allocate at a forged header's claimed size.
func FuzzDecodeFrame(f *testing.F) {
	dense := dsm.NewDense("w", 4, 16)
	dense.SetAt(1.5, 3, 2)
	sparse := dsm.NewSparse("s", 4, 16)
	sparse.SetAt(-2, 1, 9)
	sparse.SetAt(7, 3, 15)
	frames := captureFrames(func(c *codec) {
		c.sendRotation(dense.ExtractRange(1, 0, 16))
		c.sendRotation(sparse.ExtractRange(1, 4, 12))
		c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 1, Array: "w", Offsets: []int64{1, 2}, Values: []float64{3, 4}})
		c.send(&Msg{Kind: MsgArrayPart, Array: "w", PartBlob: dsm.MarshalPartition(dense.ExtractRange(0, 1, 3))})
	})
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	corrupt := append([]byte(nil), frames[1]...)
	corrupt[len(corrupt)/2] ^= 1
	f.Add(corrupt)
	f.Add(uv(uv([]byte{tagRaw}, 0), 1<<20))
	f.Add(append([]byte{tagGob}, bytes.Repeat([]byte{0x80}, 11)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		c := newCodec(&replayConn{r: bytes.NewReader(data)})
		var m Msg
		for i := 0; i < 16; i++ {
			m.reset()
			if err := c.recvInto(&m); err != nil {
				break
			}
			if m.PartBlob != nil {
				dsm.UnmarshalPartition(m.PartBlob)
			}
			releasePart(&m)
		}
	})
}
