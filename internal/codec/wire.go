package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite is the error DecodeWire wraps when a frame carries a NaN or
// an infinity as a value or a scale — what an Encoder emits for a diverged
// client's weights.
var ErrNonFinite = errors.New("codec: non-finite value")

// Wire layout of one codec frame (all integers little-endian):
//
//	[0]    magic 0xC6
//	[1]    version 0x01
//	[2]    kind (Raw/FP16/Int8)
//	[3]    flags: bit0 sparse, bit1 error-feedback
//	[4:8]  dim   uint32
//	[8:16] topk  float64 bits (0 when dense)
//	[16:20] k    uint32 — kept-coordinate count, exactly ⌈topk·dim⌉; 0 when dense
//	— sparse only — k × uint32 coordinate indices, strictly ascending < dim
//	— values, n = k (sparse) or dim (dense) —
//	  raw:  n × float64
//	  fp16: n × uint16 (binary16 bits)
//	  int8: uint32 nblocks (= ⌈n/256⌉), nblocks × float64 scales, n × int8
//
// The total length must be consumed exactly. Decode is fail-closed: every
// declared size is validated against the remaining byte count before any
// allocation, so a tiny hostile frame cannot trigger a large allocation —
// decode allocates O(len(data)) at most.

const (
	wireMagic   = 0xC6
	wireVersion = 0x01
	wireHeader  = 20

	flagSparse = 1 << 0
	flagEF     = 1 << 1
)

// WireSize returns the exact number of bytes EncodeWire produces for f
// without serializing it — the byte-accounting primitive for telemetry on
// simulated wires, where no real frame bytes ever exist.
func WireSize(f *Frame) int {
	n := f.quantLen()
	size := wireHeader + 4*len(f.Idx)
	switch f.Spec.Quant {
	case Raw:
		size += 8 * n
	case FP16:
		size += 2 * n
	case Int8:
		size += 4 + 8*len(f.Scales) + n
	}
	return size
}

// EncodeWire serializes the frame.
func EncodeWire(f *Frame) []byte {
	return AppendWire(make([]byte, 0, WireSize(f)), f)
}

// AppendWire appends the frame's wire bytes (exactly WireSize(f) of them) to
// out, so a sender can render frame after frame into one reused buffer.
func AppendWire(out []byte, f *Frame) []byte {
	var flags byte
	if f.Idx != nil {
		flags |= flagSparse
	}
	if f.Spec.EF {
		flags |= flagEF
	}
	out = append(out, wireMagic, wireVersion, byte(f.Spec.Quant), flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(f.Dim))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.Spec.TopK))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Idx)))
	for _, id := range f.Idx {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
	}
	switch f.Spec.Quant {
	case Raw:
		for _, v := range f.Val {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case FP16:
		for _, v := range f.Val {
			out = binary.LittleEndian.AppendUint16(out, f64ToF16(v))
		}
	case Int8:
		out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Scales)))
		for _, s := range f.Scales {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
		}
		for _, q := range f.Q {
			out = append(out, byte(q))
		}
	}
	return out
}

// DecodeWire parses and validates a frame into a fresh Frame; see
// DecodeWireInto. Errors are terminal: a frame that fails any check yields
// no partial state.
func DecodeWire(data []byte, maxDim int) (*Frame, error) {
	f := new(Frame)
	if err := DecodeWireInto(f, data, maxDim); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeWireInto parses and validates a frame into f, overwriting every
// field and reusing f's storage, so a session that decodes one frame per
// round into the same Frame allocates only on its first. maxDim bounds the
// accepted model dimension (callers pass the session's known dimension).
// Errors are terminal, and f's contents are then unspecified: a caller
// hands f out only after a nil error.
func DecodeWireInto(f *Frame, data []byte, maxDim int) error {
	if len(data) < wireHeader {
		return fmt.Errorf("codec: frame too short (%d bytes)", len(data))
	}
	if data[0] != wireMagic || data[1] != wireVersion {
		return fmt.Errorf("codec: bad magic/version %#02x %#02x", data[0], data[1])
	}
	kind := Kind(data[2])
	switch kind {
	case Raw, FP16, Int8:
	default:
		return fmt.Errorf("codec: unknown kind %d", data[2])
	}
	flags := data[3]
	if flags&^(flagSparse|flagEF) != 0 {
		return fmt.Errorf("codec: unknown flags %#02x", flags)
	}
	dim64 := binary.LittleEndian.Uint32(data[4:8])
	topk := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
	k64 := binary.LittleEndian.Uint32(data[16:20])
	if dim64 == 0 || int64(dim64) > int64(maxDim) {
		return fmt.Errorf("codec: dim %d out of (0,%d]", dim64, maxDim)
	}
	dim := int(dim64)
	if math.IsNaN(topk) || topk < 0 || topk >= 1 {
		return fmt.Errorf("codec: topk %v out of [0,1)", topk)
	}
	sparse := flags&flagSparse != 0
	if sparse != (topk > 0) {
		return fmt.Errorf("codec: sparse flag %v inconsistent with topk %v", sparse, topk)
	}
	// Every Encoder keeps exactly keepCount coordinates; a frame that claims
	// more would multiply its sender's share of the O(K²·k) geometry.
	k := int(k64)
	if want := keepCount(topk, dim); sparse && k != want {
		return fmt.Errorf("codec: sparse count %d, want %d for topk %v of dim %d", k, want, topk, dim)
	}
	if !sparse && k != 0 {
		return fmt.Errorf("codec: dense frame with sparse count %d", k)
	}

	n := dim // stored value count
	if sparse {
		n = k
	}
	body := data[wireHeader:]
	need := 4 * k
	switch kind {
	case Raw:
		need += 8 * n
	case FP16:
		need += 2 * n
	case Int8:
		nb := (n + Block - 1) / Block
		need += 4 + 8*nb + n
	}
	if len(body) != need {
		return fmt.Errorf("codec: frame body %d bytes, want %d", len(body), need)
	}
	spec := Spec{Quant: kind, TopK: topk, EF: flags&flagEF != 0}
	if err := spec.Validate(); err != nil {
		return err
	}

	// Every size below is now bounded by the body length, so growing f's
	// storage to it stays O(len(data)).
	f.Spec, f.Dim = spec, dim
	if sparse {
		f.Idx = scratch(&f.Idx, k)
		prev := int32(-1)
		for t := range f.Idx {
			id64 := binary.LittleEndian.Uint32(body[4*t:])
			if int64(id64) >= int64(dim) {
				return fmt.Errorf("codec: index %d out of range (dim %d)", id64, dim)
			}
			id := int32(id64)
			if id <= prev {
				return fmt.Errorf("codec: indices not strictly ascending at %d", t)
			}
			f.Idx[t] = id
			prev = id
		}
		body = body[4*k:]
	} else {
		f.Idx = nil
	}

	switch kind {
	case Raw:
		f.Q, f.Scales = nil, nil
		f.Val = scratch(&f.Val, n)
		for i := range f.Val {
			v := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w at %d", ErrNonFinite, i)
			}
			f.Val[i] = v
		}
	case FP16:
		f.Q, f.Scales = nil, nil
		f.Val = scratch(&f.Val, n)
		for i := range f.Val {
			v := f16ToF64(binary.LittleEndian.Uint16(body[2*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w (fp16) at %d", ErrNonFinite, i)
			}
			f.Val[i] = v
		}
	case Int8:
		nb := (n + Block - 1) / Block
		if got := binary.LittleEndian.Uint32(body[:4]); int64(got) != int64(nb) {
			return fmt.Errorf("codec: scale block count %d, want %d", got, nb)
		}
		body = body[4:]
		f.Scales = scratch(&f.Scales, nb)
		for b := range f.Scales {
			s := math.Float64frombits(binary.LittleEndian.Uint64(body[8*b:]))
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("%w: scale %v at block %d", ErrNonFinite, s, b)
			}
			if s < 0 {
				return fmt.Errorf("codec: negative scale %v at block %d", s, b)
			}
			f.Scales[b] = s
		}
		body = body[8*nb:]
		f.Q = scratch(&f.Q, n)
		for i := range f.Q {
			f.Q[i] = int8(body[i])
		}
		if sparse {
			f.Val = scratch(&f.Val, n)
			for i := range f.Val {
				f.Val[i] = f.Scales[i/Block] * float64(f.Q[i])
			}
		} else {
			f.Val = nil
		}
	}
	return nil
}
