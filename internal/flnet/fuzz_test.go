package flnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
)

// byteConn adapts a byte buffer to net.Conn so the framing/decoding path
// can be driven without sockets: reads drain the buffer, writes are
// discarded, deadlines are no-ops.
type byteConn struct {
	r *bytes.Reader
}

func (c *byteConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return nil }
func (c *byteConn) RemoteAddr() net.Addr               { return nil }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

// encodeEnvelopes renders envelopes to wire bytes through the real encode
// path, for seed corpus construction.
func encodeEnvelopes(tb testing.TB, envs ...*Envelope) []byte {
	tb.Helper()
	var out []byte
	for _, e := range envs {
		var err error
		if out, err = e.appendTo(out); err != nil {
			tb.Fatalf("encode seed: %v", err)
		}
	}
	return out
}

// fuzzDim is the model dimension of the seed sessions (the codec seed's).
const fuzzDim = 70

// codecFrameSeed builds the wire bytes of one real compressed update for
// the corpus: an int8 top-k frame over a small synthetic delta.
func codecFrameSeed(tb testing.TB) []byte {
	tb.Helper()
	enc := codec.NewEncoder(codec.Spec{Quant: codec.Int8, TopK: 0.5})
	global := make([]float64, fuzzDim)
	weights := make([]float64, fuzzDim)
	for i := range weights {
		weights[i] = float64(i%13) - 6
	}
	return codec.EncodeWire(enc.Encode(1, 0, global, weights))
}

// FuzzProtocolDecode is the one fuzzer of the one wire format. It feeds
// arbitrary bytes to the decode path both peers share (header validation,
// exact-length body read, typed body decode) and checks it fails closed:
// Recv never panics and never spins — every call either yields a message
// that consumed at least a header or a terminal error — and a declared
// length is checked against the session's dimension before any buffer is
// sized by it. The stream plays both directions of a session: a JoinAck
// fixes the dimension for what follows, as Dial does. Updates that carry a
// codec frame go through the second stage the server runs
// (codec.DecodeWire), which must equally fail closed: no panic, allocations
// bounded by the frame size, and any accepted frame re-encodes to valid
// bytes. Each input is then replayed through the reads joined peers run
// (replaySinks).
func FuzzProtocolDecode(f *testing.F) {
	ack := &Envelope{Type: MsgJoinAck, ClientID: 3, Dim: fuzzDim, Codec: "int8,topk=0.5"}
	global := make([]float64, fuzzDim)
	global[1], global[fuzzDim-1] = 0.5, -2
	frame := codecFrameSeed(f)
	withLength := func(msg []byte, n uint32) []byte {
		binary.LittleEndian.PutUint32(msg[16:], n)
		return msg
	}

	f.Add([]byte{})
	// A valid session, both directions in order.
	session := encodeEnvelopes(f,
		&Envelope{Type: MsgJoin, Codec: "int8,topk=0.5", Federation: "alpha"},
		ack,
		&Envelope{Type: MsgTrainRequest, Flags: PrevSame, Weights: global},
		&Envelope{Type: MsgUpdate, ClientID: 3, NumSamples: 7, Weights: global},
		&Envelope{Type: MsgTrainRequest, Flags: PrevLast, Round: 1, Weights: global},
		&Envelope{Type: MsgUpdate, Flags: UpdateFrame, Round: 1, ClientID: 3, NumSamples: 9, Frame: frame},
		&Envelope{Type: MsgTrainRequest, Flags: PrevInline, Round: 2, Weights: append(global[:fuzzDim:fuzzDim], global...)},
		&Envelope{Type: MsgDone, Weights: global},
	)
	f.Add(session)
	f.Add(session[:7])                // truncated header
	f.Add(session[:len(session)-100]) // truncated body
	f.Add(encodeEnvelopes(f, &Envelope{Type: MsgJoinReject, RejectCode: RejectCodec, Err: "no"}))
	// Length beyond the maximum: a handshake body over its bound, and a
	// TrainRequest claiming 4 GiB.
	f.Add(withLength(encodeEnvelopes(f, &Envelope{Type: MsgJoin}), maxHandshakeBody+1))
	f.Add(append(encodeEnvelopes(f, ack), withLength(encodeEnvelopes(f, &Envelope{Type: MsgTrainRequest}), 0xFFFFFFFF)...))
	// A length that is not the type's exact size for the session's dim.
	f.Add(encodeEnvelopes(f, ack, &Envelope{Type: MsgTrainRequest, Weights: global[:fuzzDim-1]}))
	f.Add(encodeEnvelopes(f, ack, &Envelope{Type: MsgDone, Weights: append(global[:fuzzDim:fuzzDim], 1)}))
	// A model-sized message before any JoinAck fixed the dimension.
	f.Add(encodeEnvelopes(f, &Envelope{Type: MsgUpdate, Weights: global}))
	// Another wire version; an unknown type; unknown flags.
	other := encodeEnvelopes(f, &Envelope{Type: MsgJoin})
	other[1]++
	f.Add(other)
	f.Add(encodeEnvelopes(f, &Envelope{Type: MsgType(99)}))
	f.Add(encodeEnvelopes(f, ack, &Envelope{Type: MsgTrainRequest, Flags: PrevInline + 1, Weights: global}))
	// A dense update carrying a NaN; a first request that elides a prev the
	// client never received.
	nan := slices.Clone(global)
	nan[fuzzDim/2] = math.NaN()
	f.Add(encodeEnvelopes(f, ack, &Envelope{Type: MsgUpdate, ClientID: 3, NumSamples: 1, Weights: nan}))
	f.Add(encodeEnvelopes(f, ack, &Envelope{Type: MsgTrainRequest, Flags: PrevLast, Weights: global}))

	// Codec sessions: the hostile frame shapes the second stage must reject.
	update := func(frame []byte) []byte {
		return encodeEnvelopes(f, ack, &Envelope{Type: MsgUpdate, Flags: UpdateFrame, ClientID: 3, Frame: frame})
	}
	// Dim mismatch: a frame encoded for a model one coordinate larger.
	wide := codec.NewEncoder(codec.Spec{Quant: codec.Raw}).Encode(3, 0, make([]float64, fuzzDim+1), make([]float64, fuzzDim+1))
	f.Add(update(codec.EncodeWire(wide)))
	// Truncated scale section: drop bytes from the tail, which for a
	// sparse int8 frame cuts into scales/quantized values.
	f.Add(update(frame[:len(frame)-10]))
	// Out-of-range top-k index: the first stored index (right after the
	// 20-byte header) patched far beyond dim.
	oob := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(oob[20:], 1<<30)
	f.Add(update(oob))
	// Over-full top-k frame: every coordinate kept (an encode at topk just
	// under 1) under a header that declares the session's topk=0.5, whose
	// frames carry exactly ⌈0.5·dim⌉ coordinates.
	full := codec.EncodeWire(codec.NewEncoder(codec.Spec{Quant: codec.Int8, TopK: 0.999}).
		Encode(3, 0, make([]float64, fuzzDim), global))
	binary.LittleEndian.PutUint64(full[8:], math.Float64bits(0.5))
	f.Add(update(full))
	// Zero-length block section: a dense int8 frame with a correctly sized
	// body that declares zero scale blocks for its 64 coordinates.
	zb := make([]byte, 0, 20+4+8+64)
	zb = append(zb, 0xC6, 0x01, byte(codec.Int8), 0)
	zb = binary.LittleEndian.AppendUint32(zb, 64) // dim
	zb = binary.LittleEndian.AppendUint64(zb, 0)  // topk
	zb = binary.LittleEndian.AppendUint32(zb, 0)  // k
	zb = binary.LittleEndian.AppendUint32(zb, 0)  // nblocks: liar, 1 block stored
	zb = append(zb, make([]byte, 8+64)...)
	f.Add(update(zb))

	f.Fuzz(func(t *testing.T, data []byte) {
		replaySinks(t, data)
		conn := NewConn(&byteConn{r: bytes.NewReader(bytes.Clone(data))}, 0)
		defer conn.Close()
		// Every message consumes at least its header, so the input holds at
		// most len(data)/headerSize of them; anything still decoding after
		// that is consuming zero bytes per call.
		for i := 0; i <= len(data)/headerSize; i++ {
			e, err := conn.Recv()
			if bound := max(maxHandshakeBody, 16*conn.dim, maxFrameBytes(conn.dim)); cap(conn.rbuf) > bound {
				t.Fatalf("read buffer grew to %d bytes, bound %d at dim %d", cap(conn.rbuf), bound, conn.dim)
			}
			if err != nil {
				return // fail-closed: decoding stopped with a terminal error
			}
			if e == nil {
				t.Fatal("Recv returned nil envelope with nil error")
			}
			if e.Type == MsgJoinAck {
				if e.Dim > 1<<12 {
					return // a legal but large model: keep the harness fast
				}
				conn.dim = e.Dim
			}
			if len(e.Frame) > 0 {
				// Second decode stage: the server feeds Update frames to the
				// codec decoder with the model dimension as the bound. It
				// must fail closed — reject or yield a frame that survives a
				// canonical re-encode — never panic or over-allocate.
				fr, err := codec.DecodeWire(e.Frame, conn.dim)
				if err == nil {
					if _, err := codec.DecodeWire(codec.EncodeWire(fr), conn.dim); err != nil {
						t.Fatalf("accepted frame fails canonical re-encode: %v", err)
					}
				}
			}
		}
		t.Fatalf("Recv yielded more messages than the input has headers (%d bytes)", len(data))
	})
}

// replaySinks replays data through next as joined peers read it — into a
// dense session, a codec session and a client (through recv) — and checks
// that each fails closed: no float64 body lands in the connection's buffer,
// which stays within the handshake and frame bounds; an update decodeUpdate
// accepts passes the engine's intake (fl.Intake) only if it is a dense
// update of the session's dimension whose values are all finite, or a frame
// of that dimension; every read consumes at least a header.
func replaySinks(t *testing.T, data []byte) {
	spec, err := codec.ParseSpec("int8,topk=0.5")
	if err != nil {
		t.Fatal(err)
	}
	joined := func() *Conn {
		conn := NewConn(&byteConn{r: bytes.NewReader(data)}, 0)
		conn.dim = fuzzDim
		return conn
	}
	c := &Client{conn: joined(), global: make([]float64, fuzzDim), prev: make([]float64, fuzzDim)}
	reads := []func() (*Conn, error){func() (*Conn, error) {
		_, err := c.recv()
		return c.conn, err
	}}
	for _, cl := range []*session{{id: 3, conn: joined()}, {id: 3, conn: joined(), spec: spec}} {
		reads = append(reads, func() (*Conn, error) {
			m, err := cl.conn.next(cl)
			if err == nil && m.f64() && m.body != nil {
				t.Fatalf("a %s float64 body landed in the read buffer", m.typ)
			}
			if err != nil || m.typ != MsgUpdate {
				return cl.conn, err
			}
			u, ok := cl.decodeUpdate(m)
			if !ok {
				return cl.conn, nil
			}
			if _, admitted := fl.Intake(u, fuzzDim); admitted && slices.ContainsFunc(u.Weights, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
				t.Fatal("intake admitted a non-finite dense update")
			}
			return cl.conn, nil
		})
	}
	for _, read := range reads {
		for i := 0; ; i++ {
			if i > len(data)/headerSize {
				t.Fatalf("next yielded more messages than the input has headers (%d bytes)", len(data))
			}
			conn, err := read()
			if bound := max(maxHandshakeBody, maxFrameBytes(fuzzDim)); cap(conn.rbuf) > bound {
				t.Fatalf("read buffer grew to %d bytes, bound %d", cap(conn.rbuf), bound)
			}
			if err != nil {
				break
			}
		}
	}
}
