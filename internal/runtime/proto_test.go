package runtime

import (
	"math"
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
		Raw:      true,
		PartDim:  1,
		PartLo:   2,
		PartHi:   9,
		PartDims: []int64{3, 7},
		ArrayDims: map[string][]int64{
			"w": {3},
		},
	}
	off0 := &m.Offsets[0]
	val0 := &m.Values[0]
	dim0 := &m.PartDims[0]
	m.reset()
	if m.Kind != 0 || m.Array != "" || m.PartBlob != nil || m.Backend != "" || m.Err != "" || m.ArrayDims != nil {
		t.Fatalf("reset left fields set: %+v", m)
	}
	if m.Raw || m.PartDim != 0 || m.PartLo != 0 || m.PartHi != 0 {
		t.Fatalf("reset left raw rotation fields set: %+v", m)
	}
	if len(m.Offsets) != 0 || len(m.Values) != 0 || len(m.PartDims) != 0 {
		t.Fatalf("reset left payload lengths: %d, %d, %d", len(m.Offsets), len(m.Values), len(m.PartDims))
	}
	m.Offsets = m.Offsets[:1]
	m.Values = m.Values[:1]
	m.PartDims = m.PartDims[:1]
	if &m.Offsets[0] != off0 || &m.Values[0] != val0 || &m.PartDims[0] != dim0 {
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

// TestRawRotationRoundTrip: a dense partition shipped via sendRotation
// must come back bitwise-identical through the raw frame path, and a
// sparse partition must transparently fall back to the gob path.
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
	p := a.ExtractRange(1, 1, 3)

	go func() {
		if _, err := cc.sendRotation("w", p); err != nil {
			t.Error(err)
		}
	}()
	var in Msg
	if err := sc.recvInto(&in); err != nil {
		t.Fatal(err)
	}
	if !in.Raw || in.Kind != MsgRotate || in.Array != "w" {
		t.Fatalf("raw frame decoded as %+v", in)
	}
	if in.PartDim != 1 || in.PartLo != 1 || in.PartHi != 3 {
		t.Fatalf("partition range came back as dim=%d [%d,%d)", in.PartDim, in.PartLo, in.PartHi)
	}
	got, err := partitionFromMsg(&in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.Local.DenseData()
	gotData, _ := got.Local.DenseData()
	if len(gotData) != len(want) {
		t.Fatalf("decoded %d elements, want %d", len(gotData), len(want))
	}
	for i := range want {
		if math.Float64bits(gotData[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: got %v, want %v (not bitwise equal)", i, gotData[i], want[i])
		}
	}

	// Sparse partitions fall back to the gob message path.
	s := dsm.NewSparse("idx", 8)
	s.SetAt(2.5, 3)
	sp := s.ExtractRange(0, 0, 8)
	go func() {
		if _, err := cc.sendRotation("idx", sp); err != nil {
			t.Error(err)
		}
	}()
	var in2 Msg
	if err := sc.recvInto(&in2); err != nil {
		t.Fatal(err)
	}
	if in2.Raw || in2.Kind != MsgRotate || in2.PartBlob == nil {
		t.Fatalf("sparse rotation decoded as %+v", in2)
	}
	got2, err := partitionFromMsg(&in2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Local.At(3) != 2.5 {
		t.Fatalf("sparse round trip lost data: got %v", got2.Local.At(3))
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
		go cc.sendRotation("w", p)
		if err := sc.recvInto(&in); err != nil {
			t.Fatal(err)
		}
		bufpool.PutF64(in.Values)
		in.Values = nil
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(100, roundTrip)
	// Budget: the sender goroutine itself, the pool's Put indirection,
	// and net.Pipe scheduling — but no payload-sized allocations. The
	// gob partition path costs >40 objects per rotation at this size.
	if allocs > 8 {
		t.Fatalf("raw rotation round trip allocates %.0f objects, want <= 8", allocs)
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
