// Package flnet is the networked deployment of the federated-learning
// system: a TCP server that drives the paper's round loop (select clients,
// broadcast the global model, collect updates, robust-aggregate) and client
// processes — benign trainers or attack adversaries — that speak one
// length-exact binary protocol in both directions. The in-process simulator
// (internal/fl) and this package share the Aggregator/Attack interfaces, so
// every defense and attack of the reproduction also runs over a real network
// boundary.
//
// Wire format, version 2. Every message is a fixed 20-byte little-endian
// header followed by exactly `length` body bytes:
//
//	[0]     magic 0xF1
//	[1]     version 0x02
//	[2]     type (MsgType)
//	[3]     flags — train: Prev* mode; update: Update* body kind; else 0
//	[4:8]   round   uint32 (train, update)
//	[8:12]  client  uint32 (joinack assigns it, update echoes it; else 0)
//	[12:16] samples int32  (update: the reported n_i; else 0)
//	[16:20] length  uint32
//
// Bodies, with d the session's model dimension (fixed by the joinack) and
// str a uint16 length followed by that many bytes:
//
//	join        str codec, str federation
//	joinack     uint32 d, str codec, str federation
//	joinreject  str code, str reason
//	train       d × f64 global, then d × f64 prev iff flags = PrevInline
//	update      d × f64 weights (UpdateDense) | one codec wire frame (UpdateFrame)
//	done        d × f64 final global
//
// The decoder is fail-closed: the header is validated — magic, version,
// type, flags, and the body length against the exact size the type has for
// the session's d — before a single body byte is read or allocated.
package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/codec"
)

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types. A session is: client sends Join; server replies
// JoinAck; then for every round the server sends TrainRequest to the
// selected clients, which reply with Update; the server ends the session
// with Done carrying the final global weights.
const (
	MsgJoin MsgType = iota + 1
	MsgJoinAck
	MsgTrainRequest
	MsgUpdate
	MsgDone
	// MsgJoinReject closes the handshake before round start when the
	// server cannot serve the client; Err carries the reason and RejectCode
	// a machine-readable class.
	MsgJoinReject
)

// Typed join-rejection codes carried in Envelope.RejectCode.
const (
	// RejectCodec: the requested update codec is not served.
	RejectCodec = "codec"
	// RejectUnknownFederation: no federation with the requested ID exists on
	// this host.
	RejectUnknownFederation = "unknown-federation"
	// RejectAdmission: the federation's pending-join queue is full (a join
	// storm); the client may retry after a backoff.
	RejectAdmission = "admission"
	// RejectClosed: the federation is full, training, or draining — it will
	// not admit members again.
	RejectClosed = "closed"
	// RejectVersion: the peer speaks another version of the wire format.
	RejectVersion = "version"
)

// TrainRequest flags: how the client obtains w(t−1). The server elides prev
// whenever the client provably retains it, and inlines it otherwise.
const (
	// PrevSame: prev equals this request's global (a fresh start).
	PrevSame uint8 = iota
	// PrevLast: prev is the global of the last request this client received.
	PrevLast
	// PrevInline: prev follows the global in the body.
	PrevInline
)

// Update flags: the body kind.
const (
	// UpdateDense: the body is the dense float64 weight vector.
	UpdateDense uint8 = iota
	// UpdateFrame: the body is one codec wire frame.
	UpdateFrame
)

// String returns the message-type name.
func (t MsgType) String() string {
	switch t {
	case MsgJoin:
		return "join"
	case MsgJoinAck:
		return "joinack"
	case MsgTrainRequest:
		return "trainrequest"
	case MsgUpdate:
		return "update"
	case MsgDone:
		return "done"
	case MsgJoinReject:
		return "joinreject"
	default:
		return fmt.Sprintf("msgtype(%d)", int(t))
	}
}

// Envelope is the decoded form of one message; fields are used depending on
// Type.
type Envelope struct {
	// Type discriminates the message.
	Type MsgType
	// Flags is the header flag byte (Prev* for TrainRequest, Update* for
	// Update).
	Flags uint8
	// Round is the round index of TrainRequest/Update messages.
	Round int
	// ClientID is assigned by the server in JoinAck and echoed in Update.
	ClientID int
	// NumSamples is the client's reported n_i in Update messages.
	NumSamples int
	// Weights carries the global model (TrainRequest — followed by w(t−1)
	// when Flags is PrevInline — and Done) or the dense local update.
	Weights []float64
	// Frame carries the compressed update (codec wire format) in Update
	// messages flagged UpdateFrame.
	Frame []byte
	// Dim is the model dimension the server announces in JoinAck; it fixes
	// the exact size of every later body of the session.
	Dim int
	// Codec is the canonical codec spec token (codec.Spec.String) the
	// client requests in Join and the server confirms in JoinAck. Empty
	// means dense float64 updates.
	Codec string
	// Federation names the federation the client wants to join (Join) or
	// was admitted to (JoinAck). Empty joins a single-tenant server, or the
	// sole federation of a host.
	Federation string
	// RejectCode is the machine-readable rejection class in JoinReject (see
	// the Reject* constants) and Err the human-readable reason.
	RejectCode, Err string
}

const (
	wireMagic   = 0xF1
	wireVersion = 0x02
	headerSize  = 20
	// maxHandshakeBody bounds join/joinack/joinreject bodies, the only ones
	// whose size the model dimension does not fix.
	maxHandshakeBody = 4 << 10
	// maxDim bounds the model dimension a peer may announce, so the largest
	// body (a TrainRequest with an inlined prev) stays within 64 MiB.
	maxDim = 4 << 20
)

// VersionError reports a peer whose header carries the protocol magic but
// another wire-format version.
type VersionError struct{ Got byte }

func (e *VersionError) Error() string {
	return fmt.Sprintf("flnet: peer speaks wire version %d, this build speaks %d", e.Got, wireVersion)
}

// errQuiet reports a read deadline that passed between messages: nothing was
// consumed, so the stream is still in sync.
var errQuiet = errors.New("flnet: no message before the deadline")

// header is a validated message header.
type header struct {
	typ                    MsgType
	flags                  uint8
	round, client, samples int
	n                      int // body length
}

// f64 reports whether h's body is float64 values: a TrainRequest, a Done or
// a dense Update.
func (h header) f64() bool {
	return h.typ == MsgTrainRequest || h.typ == MsgDone || h.typ == MsgUpdate && h.flags == UpdateDense
}

// maxFrameBytes bounds a codec wire frame of dimension d: the header, k ≤ d
// indices, d float64 values (the widest quantization) and the int8 scales.
func maxFrameBytes(d int) int { return 24 + 12*d + 8*((d+codec.Block-1)/codec.Block) }

// parseHeader validates b against the session's model dimension (0 while
// the handshake is pending) and returns the header. Every error is terminal.
func parseHeader(b []byte, dim int) (header, error) {
	if b[0] != wireMagic {
		return header{}, fmt.Errorf("flnet: bad magic %#02x", b[0])
	}
	if b[1] != wireVersion {
		return header{}, &VersionError{Got: b[1]}
	}
	h := header{
		typ:     MsgType(b[2]),
		flags:   b[3],
		round:   int(binary.LittleEndian.Uint32(b[4:])),
		client:  int(binary.LittleEndian.Uint32(b[8:])),
		samples: int(int32(binary.LittleEndian.Uint32(b[12:]))),
		n:       int(binary.LittleEndian.Uint32(b[16:])),
	}
	// lo..hi is the exact body size the type has for this session.
	lo, hi, maxFlag, handshake := 8*dim, 8*dim, uint8(0), false
	switch h.typ {
	case MsgJoin, MsgJoinAck, MsgJoinReject:
		lo, hi, handshake = 0, maxHandshakeBody, true
	case MsgTrainRequest:
		maxFlag = PrevInline
		if h.flags == PrevInline {
			lo, hi = 16*dim, 16*dim
		}
	case MsgUpdate:
		maxFlag = UpdateFrame
		if h.flags == UpdateFrame {
			lo, hi = 0, maxFrameBytes(dim)
		}
	case MsgDone:
	default:
		return header{}, fmt.Errorf("flnet: unknown message type %d", b[2])
	}
	if h.flags > maxFlag {
		return header{}, fmt.Errorf("flnet: %s with unknown flags %#02x", h.typ, h.flags)
	}
	if dim == 0 && !handshake {
		return header{}, fmt.Errorf("flnet: %s before the join handshake", h.typ)
	}
	if h.n < lo || h.n > hi {
		return header{}, fmt.Errorf("flnet: %s body of %d bytes, want %d..%d (dim %d)", h.typ, h.n, lo, hi, dim)
	}
	return h, nil
}

// appendHeader appends one header.
func appendHeader(dst []byte, typ MsgType, flags uint8, round, client, samples, n int) []byte {
	dst = append(dst, wireMagic, wireVersion, byte(typ), flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(client))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(samples)))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendF64s appends v as little-endian float64 bits.
func appendF64s(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeF64s fills dst from src (8·len(dst) bytes).
func decodeF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// readString consumes one str from src; ok is false on a short body.
func readString(src []byte) (s string, rest []byte, ok bool) {
	if len(src) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(src))
	if len(src) < 2+n {
		return "", nil, false
	}
	return string(src[2 : 2+n]), src[2+n:], true
}

// appendTo appends the message's wire bytes (header and body) to dst.
func (e *Envelope) appendTo(dst []byte) ([]byte, error) {
	// Every header field must fit its wire width, strings their uint16
	// lengths and the body its uint32 one.
	if uint64(e.Round) > math.MaxInt32 || uint64(e.ClientID) > math.MaxInt32 ||
		int(int32(e.NumSamples)) != e.NumSamples || uint64(e.Dim) > maxDim ||
		len(e.Codec)+len(e.Federation)+len(e.RejectCode) > 1<<10 ||
		len(e.Weights) > 2*maxDim || len(e.Frame) > 16*maxDim {
		return dst, fmt.Errorf("flnet: %s field out of range", e.Type)
	}
	start := len(dst)
	dst = appendHeader(dst, e.Type, e.Flags, e.Round, e.ClientID, e.NumSamples, 0)
	switch e.Type {
	case MsgJoin:
		dst = appendString(appendString(dst, e.Codec), e.Federation)
	case MsgJoinAck:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Dim))
		dst = appendString(appendString(dst, e.Codec), e.Federation)
	case MsgJoinReject:
		// The reason may quote a peer-chosen name: truncated, not refused.
		dst = appendString(appendString(dst, e.RejectCode), e.Err[:min(len(e.Err), 1<<10)])
	default:
		if e.Type == MsgUpdate && e.Flags == UpdateFrame {
			dst = append(dst, e.Frame...)
		} else {
			dst = appendF64s(dst, e.Weights)
		}
	}
	binary.LittleEndian.PutUint32(dst[start+16:], uint32(len(dst)-start-headerSize))
	return dst, nil
}

// decodeEnvelope renders a validated message into a fresh Envelope that
// shares no memory with body.
func decodeEnvelope(h header, body []byte) (*Envelope, error) {
	e := &Envelope{Type: h.typ, Flags: h.flags, Round: h.round, ClientID: h.client, NumSamples: h.samples}
	ok := true
	switch h.typ {
	case MsgJoin:
		e.Codec, body, ok = readString(body)
		if ok {
			e.Federation, body, ok = readString(body)
		}
	case MsgJoinAck:
		if ok = len(body) >= 4; ok {
			e.Dim = int(binary.LittleEndian.Uint32(body))
			e.Codec, body, ok = readString(body[4:])
		}
		if ok {
			e.Federation, body, ok = readString(body)
		}
		ok = ok && e.Dim > 0 && e.Dim <= maxDim
	case MsgJoinReject:
		e.RejectCode, body, ok = readString(body)
		if ok {
			e.Err, body, ok = readString(body)
		}
	default:
		if h.f64() {
			e.Weights = make([]float64, len(body)/8)
			decodeF64s(e.Weights, body)
		} else {
			e.Frame = append([]byte(nil), body...)
		}
		body = nil
	}
	if !ok || len(body) != 0 {
		return nil, fmt.Errorf("flnet: malformed %s body", h.typ)
	}
	return e, nil
}

// Conn frames messages over a net.Conn with deadline handling. Every read
// consumes one whole message (next): a float64 body decodes straight into
// its reader's vectors, other bodies into one reusable buffer, and writes go
// through another, so a session in steady state allocates nothing for
// framing. It is not safe for concurrent use.
type Conn struct {
	raw net.Conn
	// Timeout bounds each read or write; 0 means no deadline.
	Timeout time.Duration
	// dim is the session's model dimension; 0 until the handshake sets it,
	// and until then only handshake messages decode.
	dim int

	hdr        [headerSize]byte
	rbuf, wbuf []byte
	// iov and out hold a vectored write's buffers: out is a field, so
	// writing through it allocates no slice header per message.
	iov [3][]byte
	out net.Buffers
}

// NewConn wraps a network connection.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{raw: raw, Timeout: timeout}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// Send writes one message. The write buffer grows to a message's body at
// once, not by doubling: a session's updates are all one size, so its first
// sizes the buffer for the rest.
func (c *Conn) Send(e *Envelope) error {
	buf, err := e.appendTo(slices.Grow(c.wbuf[:0], headerSize+8*len(e.Weights)+len(e.Frame)))
	if err != nil {
		return err
	}
	c.wbuf = buf
	if err := c.write(buf); err != nil {
		return fmt.Errorf("flnet: send %s: %w", e.Type, err)
	}
	return nil
}

// write sends already-encoded message bytes under the write deadline, as
// one vectored write (one plain Write per buffer on a non-socket net.Conn).
func (c *Conn) write(bufs ...[]byte) error {
	if c.Timeout > 0 {
		//lint:allow telemetryclock socket write deadline feeds the OS, not results
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
			return err
		}
	}
	c.out = append(c.iov[:0], bufs...)
	_, err := c.out.WriteTo(c.raw)
	return err
}

// Recv reads one message into a fresh Envelope.
func (c *Conn) Recv() (*Envelope, error) {
	if err := c.armRead(); err != nil {
		return nil, err
	}
	m, err := c.next(nil)
	if err != nil {
		return nil, err
	}
	return decodeEnvelope(m.header, m.body)
}

// armRead sets the read deadline Timeout from now.
func (c *Conn) armRead() error {
	if c.Timeout <= 0 {
		return nil
	}
	//lint:allow telemetryclock socket read deadline feeds the OS, not results
	return c.raw.SetReadDeadline(time.Now().Add(c.Timeout))
}

// sink is a reader that owns the vectors float64 bodies decode into: into
// returns the ones h's body fills, in order. A body they do not exactly
// cover is refused unread.
type sink interface {
	into(h header) (a, b []float64)
}

// message is one fully read message: body holds a body no sink took, valid
// until the next read.
type message struct {
	header
	body []byte
}

// chunk is the unit a sunk float64 body is read in, and chunks lends next
// one. A body is read a chunk at a time only while its bytes arrive, so a
// process's connections — a host's sessions, a process of clients — share a
// few chunks instead of each keeping a buffer the size of its largest
// message.
type chunk [32 << 10]byte

var chunks = sync.Pool{New: func() any { return new(chunk) }}

// next reads the next message whole, under whatever read deadline is armed:
// it is the only read of the connection, so the stream cannot fall out of
// sync between messages. With a sink, a float64 body decodes straight into
// the sink's vectors; every other body is read into the connection's
// reusable buffer. errQuiet means the deadline passed before the first
// header byte; every other error leaves the stream out of sync.
func (c *Conn) next(s sink) (message, error) {
	if n, err := io.ReadFull(c.raw, c.hdr[:]); err != nil {
		var ne net.Error
		if n == 0 && errors.As(err, &ne) && ne.Timeout() {
			err = errQuiet
		}
		return message{}, err
	}
	h, err := parseHeader(c.hdr[:], c.dim)
	if err != nil {
		return message{}, err
	}
	m := message{header: h}
	if s != nil && h.f64() {
		a, b := s.into(h)
		if 8*(len(a)+len(b)) != h.n {
			return m, fmt.Errorf("flnet: unexpected %s", h.typ)
		}
		buf := chunks.Get().(*chunk)
		defer chunks.Put(buf)
		for _, dst := range [2][]float64{a, b} {
			for len(dst) > 0 && err == nil {
				n := min(len(dst), len(buf)/8)
				_, err = io.ReadFull(c.raw, buf[:8*n])
				decodeF64s(dst[:n], buf[:8*n])
				dst = dst[n:]
			}
		}
	} else {
		if cap(c.rbuf) < h.n {
			c.rbuf = make([]byte, h.n)
		}
		m.body = c.rbuf[:h.n]
		_, err = io.ReadFull(c.raw, m.body)
	}
	if err != nil {
		return m, fmt.Errorf("flnet: %s body: %w", h.typ, err)
	}
	return m, nil
}
