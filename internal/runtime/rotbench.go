package runtime

import (
	"net"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// RotationBench exposes the peer codec's rotation paths to
// internal/bench without exporting the codec itself: a client/server
// codec pair over an in-memory pipe, the client end wrapped in the same
// countingConn production ring links use (so BytesSent is the true wire
// size, framing included), and a sink goroutine performing the
// receive-side work servePeer plus the executor's install step do per
// rotated partition.
type RotationBench struct {
	cc, sc *codec
	stats  *obs.PeerStats
	ack    Msg
	done   chan struct{}
}

// NewRotationBench builds the codec pair and starts the sink.
func NewRotationBench() *RotationBench {
	client, server := net.Pipe()
	stats := obs.NewRegistry().GetPeer("rotbench")
	rb := &RotationBench{
		cc:    newCodec(&countingConn{Conn: client, stats: stats}),
		sc:    newCodec(server),
		stats: stats,
		done:  make(chan struct{}),
	}
	go rb.sink()
	return rb
}

// sink receives rotations, installs each decoded partition the way
// the executor's fold does (recycling pooled dense storage), and acks
// each frame.
func (rb *RotationBench) sink() {
	defer close(rb.done)
	var in, ack Msg
	for {
		if err := rb.sc.recvInto(&in); err != nil {
			return
		}
		if in.Kind == MsgShutdown || in.part == nil {
			return
		}
		if data, _ := in.part.Local.DenseData(); data != nil {
			bufpool.PutF64(data)
		}
		in.part = nil
		ack.reset()
		ack.Kind = MsgAck
		if err := rb.sc.send(&ack); err != nil {
			return
		}
	}
}

// RoundTrip ships one partition as a rotation frame and waits for the
// sink's ack.
func (rb *RotationBench) RoundTrip(p *dsm.Partition) error {
	if _, err := rb.cc.sendRotation(p); err != nil {
		return err
	}
	return rb.cc.recvInto(&rb.ack)
}

// BytesSent returns the cumulative wire bytes the client end has
// written, including tag and framing overhead.
func (rb *RotationBench) BytesSent() int64 { return rb.stats.BytesSent.Value() }

// Close shuts the sink down and releases both pipe ends.
func (rb *RotationBench) Close() {
	_ = rb.cc.send(&Msg{Kind: MsgShutdown})
	<-rb.done
	_ = rb.cc.close()
	_ = rb.sc.close()
}
