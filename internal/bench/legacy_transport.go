package bench

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"

	"orion/internal/dsm"
	"orion/internal/runtime/bufpool"
)

// Frozen comparators for the transport experiment: self-contained
// copies of the two rotation paths the production codec replaced, kept
// here only so BENCH_transport.json can price the shipped path against
// them in the same run. They share no code with the runtime codec or
// dsm's partition layout, so a change there cannot move these rows.
//
//   - gob: every rotated partition gob-encoded into a blob (a fresh
//     encoder per blob), shipped inside a gob message, gob-decoded into a
//     fresh partition on receipt.
//   - raw-nocrc: the dense raw rotation frame as it was before frame
//     integrity landed — no sequence number, no CRC32C trailer, and the
//     original 512-element staging on both ends.
//
// Both sinks ack every rotation with a gob message, as the runtime sink
// does.

// legacyMsg is the gob message both frozen paths exchange.
type legacyMsg struct {
	Kind     int
	Array    string
	PartBlob []byte
}

// legacyArray and legacyPartition are the gob wire forms of the old
// partition blob.
type legacyArray struct {
	Name   string
	Dims   []int64
	Dense  []float64
	Sparse map[int64]float64
}

type legacyPartition struct {
	Array string
	Dim   int
	Lo    int64
	Hi    int64
	Local legacyArray
}

const (
	legacyAck           = 1
	legacyTagRaw        = 'R'
	legacyRawChunkElems = 512
)

// countConn counts the bytes the client end writes, framing included.
type countConn struct {
	net.Conn
	n int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// legacyRotation is one frozen path over an in-memory pipe: the client
// ships partitions, a sink goroutine receives and installs them and
// acks each one.
type legacyRotation struct {
	cc   *countConn
	sc   net.Conn
	bw   *bufio.Writer
	enc  *gob.Encoder
	dec  *gob.Decoder
	ack  legacyMsg
	raw  bool
	buf  []byte
	done chan struct{}
}

func newLegacyRotation(raw bool) *legacyRotation {
	client, server := net.Pipe()
	cc := &countConn{Conn: client}
	lr := &legacyRotation{
		cc:   cc,
		sc:   server,
		bw:   bufio.NewWriter(cc),
		dec:  gob.NewDecoder(bufio.NewReader(cc)),
		raw:  raw,
		done: make(chan struct{}),
	}
	lr.enc = gob.NewEncoder(lr.bw)
	go lr.sink()
	return lr
}

// RoundTrip ships one partition and waits for the sink's ack.
func (lr *legacyRotation) RoundTrip(p *dsm.Partition) error {
	var err error
	if lr.raw {
		err = lr.sendRaw(p)
	} else {
		err = lr.sendGob(p)
	}
	if err != nil {
		return err
	}
	if err := lr.bw.Flush(); err != nil {
		return err
	}
	lr.ack = legacyMsg{}
	return lr.dec.Decode(&lr.ack)
}

// BytesSent returns the wire bytes the client end has written.
func (lr *legacyRotation) BytesSent() int64 { return lr.cc.n }

// Close ends the sink and releases both pipe ends.
func (lr *legacyRotation) Close() {
	lr.cc.Close()
	<-lr.done
	lr.sc.Close()
}

func (lr *legacyRotation) sendGob(p *dsm.Partition) error {
	data, _ := p.Local.DenseData()
	w := legacyPartition{Array: p.Array, Dim: p.Dim, Lo: p.Lo, Hi: p.Hi,
		Local: legacyArray{Name: p.Local.Name(), Dims: p.Local.Dims(), Dense: data}}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(w); err != nil {
		return err
	}
	return lr.enc.Encode(legacyMsg{Array: p.Array, PartBlob: blob.Bytes()})
}

func (lr *legacyRotation) sendRaw(p *dsm.Partition) error {
	data, _ := p.Local.DenseData()
	if data == nil {
		return errors.New("bench: raw-nocrc ships dense partitions only")
	}
	dims := p.Local.Dims()
	h := append(lr.buf[:0], legacyTagRaw)
	h = binary.AppendUvarint(h, uint64(len(p.Array)))
	h = append(h, p.Array...)
	h = binary.AppendUvarint(h, uint64(p.Dim))
	h = binary.AppendUvarint(h, uint64(p.Lo))
	h = binary.AppendUvarint(h, uint64(p.Hi))
	h = binary.AppendUvarint(h, uint64(len(dims)))
	for _, d := range dims {
		h = binary.AppendUvarint(h, uint64(d))
	}
	h = binary.AppendUvarint(h, uint64(len(data)))
	if _, err := lr.bw.Write(h); err != nil {
		return err
	}
	if cap(h) < legacyRawChunkElems*8 {
		h = make([]byte, legacyRawChunkElems*8)
	}
	lr.buf = h[:0]
	buf := h[:legacyRawChunkElems*8]
	for off := 0; off < len(data); off += legacyRawChunkElems {
		n := min(len(data)-off, legacyRawChunkElems)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(data[off+i]))
		}
		if _, err := lr.bw.Write(buf[:n*8]); err != nil {
			return err
		}
	}
	return nil
}

// sink receives, installs (recycling pooled raw payloads as the
// executor's fold does), and acks until the client closes the pipe.
func (lr *legacyRotation) sink() {
	defer close(lr.done)
	br := bufio.NewReader(lr.sc)
	bw := bufio.NewWriter(lr.sc)
	enc := gob.NewEncoder(bw)
	dec := gob.NewDecoder(br)
	var rs rawSink
	var in legacyMsg
	for {
		if lr.raw {
			p, err := rs.recv(br)
			if err != nil {
				return
			}
			data, _ := p.Local.DenseData()
			bufpool.PutF64(data)
		} else {
			in = legacyMsg{}
			if err := dec.Decode(&in); err != nil {
				return
			}
			var w legacyPartition
			if err := gob.NewDecoder(bytes.NewReader(in.PartBlob)).Decode(&w); err != nil {
				return
			}
			_ = dsm.NewDenseFrom(w.Local.Name, w.Local.Dense, w.Local.Dims...)
		}
		if err := enc.Encode(legacyMsg{Kind: legacyAck}); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// rawSink is the receive side of the raw-nocrc frame: header fields
// read straight off the stream, names interned, dims reused, payload
// scattered through narrow staging into pooled storage.
type rawSink struct {
	dims    []int64
	scratch []byte
	names   map[string]string
}

func (s *rawSink) recv(br *bufio.Reader) (*dsm.Partition, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if tag != legacyTagRaw {
		return nil, errors.New("bench: unexpected frame tag")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if cap(s.scratch) < legacyRawChunkElems*8 {
		s.scratch = make([]byte, legacyRawChunkElems*8)
	}
	if nameLen > uint64(len(s.scratch)) {
		return nil, errors.New("bench: array name too long")
	}
	nb := s.scratch[:nameLen]
	if _, err := io.ReadFull(br, nb); err != nil {
		return nil, err
	}
	name, ok := s.names[string(nb)]
	if !ok {
		if s.names == nil {
			s.names = map[string]string{}
		}
		name = string(nb)
		s.names[name] = name
	}
	var hdr [4]uint64 // dim, lo, hi, rank
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	}
	s.dims = s.dims[:0]
	for i := uint64(0); i < hdr[3]; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		s.dims = append(s.dims, int64(d))
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	vals := bufpool.GetF64(int(count))
	buf := s.scratch[:legacyRawChunkElems*8]
	for off := 0; off < len(vals); off += legacyRawChunkElems {
		n := min(len(vals)-off, legacyRawChunkElems)
		if _, err := io.ReadFull(br, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			vals[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	local := dsm.NewDenseFrom(name, vals, append([]int64(nil), s.dims...)...)
	return &dsm.Partition{Array: name, Dim: int(hdr[0]), Lo: int64(hdr[1]), Hi: int64(hdr[2]), Local: local}, nil
}
