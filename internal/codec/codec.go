// Package codec compresses federated-learning model updates for wire
// transport and compressed-domain aggregation.
//
// A client's round product — the weight vector w_i(t+1), equivalently the
// delta Δ_i = w_i − g against the broadcast global model g — is 8·d bytes of
// float64. At cross-device scale (PR 4's million-client populations served
// over flnet sockets) the bytes dominate the round, not the FLOPs. This
// package provides the three standard lossy reductions studied alongside
// the paper family's attacks and defenses:
//
//   - fp16 quantization: round-to-nearest-even half precision, 4× smaller;
//   - int8 stochastic quantization: one scale per 256-element block
//     (maxabs/127), stochastic rounding driven by a per-(client,round)
//     SplitMix64 stream, 8× smaller;
//   - top-k sparsification: keep the k = ⌈TopK·d⌉ largest-magnitude
//     coordinates as (index, value) pairs, optionally with a client-side
//     error-feedback residual that re-injects dropped mass next round.
//
// The "raw" kind is the lossless control: dense raw frames carry the weight
// vector verbatim, so a raw-codec run is bit-identical to a codec-off run
// end to end.
//
// Determinism contract: encoding is a pure function of (spec, client,
// round, global, weights, residual) — the stochastic-rounding stream is
// keyed by (clientID, round) and consumed in ascending coordinate order —
// and the geometry kernels accumulate in fixed block/index order, so every
// result is bit-identical at any worker count.
package codec

import (
	"fmt"
	"math"
	"strconv"
)

// Kind names a quantization family.
type Kind uint8

const (
	// Off disables the codec entirely: updates travel as dense float64.
	Off Kind = iota
	// Raw keeps float64 values (lossless; with top-k, only the selection
	// loses information).
	Raw
	// FP16 rounds values to IEEE half precision (round-to-nearest-even).
	FP16
	// Int8 quantizes values to int8 with one float64 scale per
	// tensor.Int8Block-element block, using stochastic rounding.
	Int8
)

func (k Kind) String() string {
	switch k {
	case Off:
		return "none"
	case Raw:
		return "raw"
	case FP16:
		return "fp16"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Spec is a complete codec configuration. Its String form is the canonical
// negotiation token exchanged at the flnet join handshake; two specs are
// compatible iff their strings are equal.
type Spec struct {
	// Quant selects the quantization family; Off disables the codec.
	Quant Kind
	// TopK, when positive, keeps only the ⌈TopK·d⌉ largest-magnitude
	// delta coordinates per update. Must lie in [0, 1).
	TopK float64
	// EF enables the client-side error-feedback residual: the part of the
	// delta the lossy encoding dropped is added back before encoding the
	// next round's delta. Requires a lossy setting.
	EF bool
}

// Enabled reports whether the codec is active at all.
func (s Spec) Enabled() bool { return s.Quant != Off }

// Lossy reports whether encoding can change update values: any
// quantization below float64, or any sparsification.
func (s Spec) Lossy() bool {
	return s.Quant == FP16 || s.Quant == Int8 || s.TopK > 0
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	switch s.Quant {
	case Off, Raw, FP16, Int8:
	default:
		return fmt.Errorf("codec: unknown quantization kind %d", s.Quant)
	}
	if s.TopK != 0 || s.EF {
		if !s.Enabled() {
			return fmt.Errorf("codec: topk/ef require an enabled codec")
		}
	}
	if s.TopK < 0 || s.TopK >= 1 || math.IsNaN(s.TopK) {
		return fmt.Errorf("codec: topk=%v out of [0,1)", s.TopK)
	}
	if s.EF && !s.Lossy() {
		return fmt.Errorf("codec: error feedback requires a lossy setting (raw dense has no residual)")
	}
	return nil
}

// String renders the canonical spec token: "" for Off, else
// "<kind>[,topk=<frac>][,ef]".
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	out := s.Quant.String()
	if s.TopK > 0 {
		out += fmt.Sprintf(",topk=%g", s.TopK)
	}
	if s.EF {
		out += ",ef"
	}
	return out
}

// ParseSpec parses a spec token as produced by String. "" and "none" give
// the disabled spec.
func ParseSpec(str string) (Spec, error) {
	var s Spec
	if str == "" || str == "none" {
		return s, nil
	}
	rest := str
	for i, part := range splitComma(rest) {
		switch {
		case i == 0:
			switch part {
			case "raw":
				s.Quant = Raw
			case "fp16":
				s.Quant = FP16
			case "int8":
				s.Quant = Int8
			default:
				return Spec{}, fmt.Errorf("codec: unknown kind %q in spec %q", part, str)
			}
		case part == "ef":
			s.EF = true
		case len(part) > 5 && part[:5] == "topk=":
			v, err := parseFloat(part[5:])
			if err != nil {
				return Spec{}, fmt.Errorf("codec: bad topk in spec %q: %v", str, err)
			}
			s.TopK = v
		default:
			return Spec{}, fmt.Errorf("codec: unknown option %q in spec %q", part, str)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func splitComma(s string) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return parts
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// mix64 is the SplitMix64 finalizer used across the reproduction for
// deterministic per-entity streams (see internal/population). The codec
// keys its stochastic-rounding draws with it so the same (client, round)
// always replays the same rounding decisions, in any process.
func mix64raw(a, b uint64) uint64 {
	x := a ^ (b+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// streamQuant tags the codec's rounding streams so they cannot collide with
// the engine's selection/attack/participation streams.
const streamQuant = 0xC0DEC

// roundStream yields the uniform [0,1) draws of one (client, round) encode:
// a SplitMix64 sequence whose state is keyed by both identifiers. Draws are
// consumed in ascending position order over the quantized array.
type roundStream struct{ x uint64 }

func newRoundStream(clientID, round int) roundStream {
	seed := mix64raw(uint64(clientID)*0x9E3779B97F4A7C15^uint64(round), streamQuant)
	return roundStream{x: seed}
}

func (r *roundStream) next() float64 {
	r.x += 0x9E3779B97F4A7C15
	z := mix64raw(r.x, streamQuant)
	return float64(z>>11) * (1.0 / (1 << 53))
}
