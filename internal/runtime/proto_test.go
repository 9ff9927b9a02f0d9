package runtime

import (
	"net"
	"testing"

	"orion/internal/dsm"
	"orion/internal/runtime/bufpool"
)

// TestMsgReset: reset must zero every field while keeping the hot
// payload slices' backing storage.
func TestMsgReset(t *testing.T) {
	m := Msg{
		Kind:     MsgPrefetch,
		Array:    "w",
		PartBlob: []byte{1, 2},
		Offsets:  []int64{1, 2, 3},
		Values:   []float64{4, 5, 6},
		Backend:  "vm",
		Err:      "boom",
		part:     dsm.NewDense("w", 3).ExtractRange(0, 0, 3),
		ArrayDims: map[string][]int64{
			"w": {3},
		},
	}
	off0 := &m.Offsets[0]
	val0 := &m.Values[0]
	m.reset()
	if m.Kind != 0 || m.Array != "" || m.PartBlob != nil || m.Backend != "" || m.Err != "" || m.ArrayDims != nil || m.part != nil {
		t.Fatalf("reset left fields set: %+v", m)
	}
	if len(m.Offsets) != 0 || len(m.Values) != 0 {
		t.Fatalf("reset left payload lengths: %d, %d", len(m.Offsets), len(m.Values))
	}
	m.Offsets = m.Offsets[:1]
	m.Values = m.Values[:1]
	if &m.Offsets[0] != off0 || &m.Values[0] != val0 {
		t.Fatal("reset dropped the payload backing storage")
	}
}

// startEcho serves one connection with the reusing recvInto/send pair,
// echoing prefetch payloads back — the shape of servePeer's hot loop.
func startEcho(c *codec) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var in, out Msg
		for {
			if err := c.recvInto(&in); err != nil {
				return
			}
			if in.Kind == MsgShutdown {
				return
			}
			out = Msg{Kind: MsgPrefetchResp, Array: in.Array, Offsets: in.Offsets, Values: in.Values}
			if err := c.send(&out); err != nil {
				return
			}
		}
	}()
	return done
}

// TestRecvIntoReusesPayloadStorage: steady-state request/response
// round trips must reuse the decoded payload slices' backing arrays
// and stay within a small allocation budget per round trip.
func TestRecvIntoReusesPayloadStorage(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)
	done := startEcho(sc)

	req := Msg{Kind: MsgPrefetch, Array: "weights",
		Offsets: make([]int64, 64), Values: make([]float64, 64)}
	for i := range req.Offsets {
		req.Offsets[i] = int64(i)
		req.Values[i] = float64(i) * 0.5
	}
	var resp Msg
	roundTrip := func() {
		if err := cc.send(&req); err != nil {
			t.Fatal(err)
		}
		if err := cc.recvInto(&resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if len(resp.Offsets) != 64 || len(resp.Values) != 64 {
		t.Fatalf("echo payload came back with %d/%d elements", len(resp.Offsets), len(resp.Values))
	}
	off0 := &resp.Offsets[0]
	val0 := &resp.Values[0]
	allocs := testing.AllocsPerRun(100, roundTrip)
	if &resp.Offsets[0] != off0 || &resp.Values[0] != val0 {
		t.Fatal("recvInto reallocated the payload backing storage")
	}
	// The budget covers both ends of the pipe (client and echo server
	// goroutines both count toward the global allocation counter). The
	// old fresh-Msg-per-recv path costs ~3x this.
	if allocs > 24 {
		t.Fatalf("round trip allocates %.0f objects, want <= 24", allocs)
	}

	cc.send(&Msg{Kind: MsgShutdown})
	<-done
}

// TestRawRotationRoundTrip: dense and sparse partitions shipped via
// sendRotation both come back bitwise-identical through the 'R' frame,
// decoded straight into a partition.
func TestRawRotationRoundTrip(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)

	a := dsm.NewDense("w", 3, 4)
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 4; j++ {
			a.SetAt(float64(i)*10+float64(j)+0.125, i, j)
		}
	}
	s := dsm.NewSparse("idx", 8)
	s.SetAt(2.5, 3)
	s.SetAt(-0.75, 6)
	for _, p := range []*dsm.Partition{a.ExtractRange(1, 1, 3), s.ExtractRange(0, 0, 8)} {
		go func() {
			if _, err := cc.sendRotation(p); err != nil {
				t.Error(err)
			}
		}()
		var in Msg
		if err := sc.recvInto(&in); err != nil {
			t.Fatal(err)
		}
		got := in.part
		if in.Kind != MsgRotate || in.Array != p.Array || got == nil {
			t.Fatalf("rotation frame decoded as %+v", in)
		}
		if got.Dim != p.Dim || got.Lo != p.Lo || got.Hi != p.Hi || got.Local.IsDense() != p.Local.IsDense() {
			t.Fatalf("partition came back as dim=%d [%d,%d), dense %v", got.Dim, got.Lo, got.Hi, got.Local.IsDense())
		}
		if want, back := dsm.MarshalPartition(p), dsm.MarshalPartition(got); string(want) != string(back) {
			t.Fatalf("%s: round trip not bitwise equal", p.Array)
		}
	}
}

// TestRawRotationAllocs: steady-state raw rotation round trips must not
// allocate per rotated partition beyond a tiny fixed budget — the whole
// point of the pooled raw codec over per-message gob blobs.
func TestRawRotationAllocs(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)

	a := dsm.NewDense("w", 6, 128)
	p := a.ExtractRange(1, 0, 128)
	var in Msg
	roundTrip := func() {
		go cc.sendRotation(p)
		if err := sc.recvInto(&in); err != nil {
			t.Fatal(err)
		}
		releasePart(&in)
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(100, roundTrip)
	// Budget: the sender goroutine itself, the pool's Put indirection,
	// net.Pipe scheduling, and the decoded partition (two objects) —
	// but no payload-sized allocations. The gob partition path costs
	// >40 objects per rotation at this size.
	if allocs > 8 {
		t.Fatalf("raw rotation round trip allocates %.0f objects, want <= 8", allocs)
	}
}

// releasePart returns a received rotation's pooled dense storage.
func releasePart(m *Msg) {
	if m.part != nil {
		if data, _ := m.part.Local.DenseData(); data != nil {
			bufpool.PutF64(data)
		}
		m.part = nil
	}
}

// BenchmarkPeerRoundTrip measures the reusing codec path end to end
// (the transport cost under every served read during execution).
func BenchmarkPeerRoundTrip(b *testing.B) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)
	done := startEcho(sc)

	req := Msg{Kind: MsgPrefetch, Array: "weights",
		Offsets: make([]int64, 64), Values: make([]float64, 64)}
	var resp Msg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.send(&req); err != nil {
			b.Fatal(err)
		}
		if err := cc.recvInto(&resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cc.send(&Msg{Kind: MsgShutdown})
	<-done
}
