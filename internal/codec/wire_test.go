package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func testFrames(tb testing.TB) []*Frame {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	dim := 2*Block + 57
	global := make([]float64, dim)
	weights := make([]float64, dim)
	for i := range weights {
		global[i] = rng.NormFloat64()
		weights[i] = global[i] + 0.05*rng.NormFloat64()
	}
	var frames []*Frame
	for _, spec := range []Spec{
		{Quant: Raw},
		{Quant: FP16},
		{Quant: Int8},
		{Quant: Raw, TopK: 0.1},
		{Quant: FP16, TopK: 0.25, EF: true},
		{Quant: Int8, TopK: 0.5},
	} {
		frames = append(frames, NewEncoder(spec).Encode(4, 2, global, weights))
	}
	return frames
}

func TestWireRoundTrip(t *testing.T) {
	for _, f := range testFrames(t) {
		data := EncodeWire(f)
		got, err := DecodeWire(data, f.Dim)
		if err != nil {
			t.Fatalf("spec %q: decode: %v", f.Spec, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("spec %q: round trip mismatch\n got %+v\nwant %+v", f.Spec, got, f)
		}
		// Byte-level stability: re-encode of the decoded frame is identical.
		if again := EncodeWire(got); !reflect.DeepEqual(again, data) {
			t.Fatalf("spec %q: re-encode differs", f.Spec)
		}
	}
}

func TestWireCompressionRatio(t *testing.T) {
	for _, f := range testFrames(t) {
		raw := 8 * f.Dim
		got := len(EncodeWire(f))
		var want float64
		switch {
		case f.Spec.Quant == Raw && f.Idx == nil:
			want = 1.05 // dense raw: no reduction expected
		case f.Idx != nil:
			// Sparse: (4 + valbytes)·k plus header; require strictly
			// smaller than dense at these keep fractions.
			want = 1.0
		case f.Spec.Quant == FP16:
			want = 0.3
		case f.Spec.Quant == Int8:
			want = 0.15
		}
		if float64(got) > want*float64(raw) {
			t.Fatalf("spec %q: %d wire bytes vs %d dense (> %.2f×)", f.Spec, got, raw, want)
		}
	}
}

// mutate returns data with one region overwritten, for fail-closed probes.
func put32(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// overfullFrame returns the wire bytes of a well-formed sparse int8 frame
// that declares topk but keeps every one of its dim coordinates: an encode
// at topk just under 1 with the header's topk field rewritten.
func overfullFrame(dim int, topk float64) []byte {
	f := NewEncoder(Spec{Quant: Int8, TopK: 1 - 1/float64(2*dim)}).
		Encode(0, 0, make([]float64, dim), filled(dim, 1))
	data := EncodeWire(f)
	binary.LittleEndian.PutUint64(data[8:], math.Float64bits(topk))
	return data
}

func TestDecodeWireFailClosed(t *testing.T) {
	sparseInt8 := NewEncoder(Spec{Quant: Int8, TopK: 0.1}).
		Encode(1, 1, make([]float64, 4*Block), filled(4*Block, 0.3))
	good := EncodeWire(sparseInt8)
	denseInt8 := EncodeWire(NewEncoder(Spec{Quant: Int8}).
		Encode(1, 1, make([]float64, Block+9), filled(Block+9, 0.2)))

	cases := map[string][]byte{
		"empty":             {},
		"short header":      good[:10],
		"bad magic":         append([]byte{0x00}, good[1:]...),
		"bad version":       append([]byte{wireMagic, 0xFF}, good[2:]...),
		"bad kind":          append([]byte{wireMagic, wireVersion, 99}, good[3:]...),
		"bad flags":         append([]byte{wireMagic, wireVersion, good[2], 0x80}, good[4:]...),
		"zero dim":          put32(good, 4, 0),
		"huge dim":          put32(good, 4, 1<<31-1),
		"zero-length k":     put32(good, 16, 0),     // sparse with no coords
		"k beyond dim":      put32(good, 16, 1<<30), // allocation probe
		"k = dim at topk":   overfullFrame(4*Block, 0.1),
		"oob index":         put32(good, wireHeader, 1e9),
		"descending index":  put32(good, wireHeader+4, 0),
		"truncated indices": good[:wireHeader+5],
		"truncated scales":  denseInt8[:len(denseInt8)-Block-9-4],
		"truncated values":  good[:len(good)-3],
		"trailing bytes":    append(append([]byte(nil), good...), 1, 2, 3),
		"zero blocks":       put32(denseInt8, wireHeader, 0),
	}
	for name, data := range cases {
		if f, err := DecodeWire(data, 1<<20); err == nil {
			t.Fatalf("%s: decode accepted (%+v)", name, f)
		}
	}
	// The over-full frame is rejected for its count alone: declaring the
	// fraction that count is the ceiling of makes the same bytes decode.
	honest := overfullFrame(4*Block, 1-1/float64(8*Block))
	if f, err := DecodeWire(honest, 1<<20); err != nil || len(f.Idx) != 4*Block {
		t.Fatalf("frame keeping ⌈topk·dim⌉ = dim coordinates: %v", err)
	}
	// NaN scale: find the scales region of the dense int8 frame.
	nanScale := append([]byte(nil), denseInt8...)
	binary.LittleEndian.PutUint64(nanScale[wireHeader+4:], math.Float64bits(math.NaN()))
	if _, err := DecodeWire(nanScale, 1<<20); err == nil {
		t.Fatal("NaN scale: decode accepted")
	}
	// maxDim enforcement: the session's dimension bounds what decodes.
	if _, err := DecodeWire(good, sparseInt8.Dim-1); err == nil {
		t.Fatal("decode accepted a frame beyond maxDim")
	}
}

// TestEncodeNonFiniteWeights: a diverged client's weights — NaN and ±Inf
// among them — encode without panic under every codec, and the frame is not
// laundered into finite numbers: the wire decoder rejects it as non-finite.
func TestEncodeNonFiniteWeights(t *testing.T) {
	const dim = 2000
	for _, quant := range []Kind{Raw, FP16, Int8} {
		for _, topk := range []float64{0, 0.1} {
			spec := Spec{Quant: quant, TopK: topk, EF: topk > 0}
			for name, poison := range map[string]func(w []float64){
				"NaN first half": func(w []float64) {
					for i := range w[:dim/2] {
						w[i] = math.NaN()
					}
				},
				"all NaN": func(w []float64) {
					for i := range w {
						w[i] = math.NaN()
					}
				},
				"NaN and ±Inf": func(w []float64) { w[3], w[700], w[dim-1] = math.NaN(), math.Inf(1), math.Inf(-1) },
				"one +Inf":     func(w []float64) { w[1234] = math.Inf(1) },
			} {
				t.Run(fmt.Sprintf("%s/%s", spec, name), func(t *testing.T) {
					weights := filled(dim, 0.05)
					poison(weights)
					f := NewEncoder(spec).Encode(0, 1, make([]float64, dim), weights)
					if _, err := DecodeWire(EncodeWire(f), dim); !errors.Is(err, ErrNonFinite) {
						t.Fatalf("DecodeWire of a non-finite update: %v, want ErrNonFinite", err)
					}
				})
			}
		}
	}
}

func filled(n int, amp float64) []float64 {
	rng := rand.New(rand.NewSource(23))
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * rng.NormFloat64()
	}
	return out
}

// FuzzDecodeWire drives the frame decoder with arbitrary bytes: it must
// fail closed — no panics, no allocation driven by unvalidated declared
// sizes — decode into a frame that held any layout before exactly as into a
// fresh one, and anything it accepts must re-encode to the same bytes and
// reconstruct into a dirty scratch vector exactly as into a fresh one.
func FuzzDecodeWire(f *testing.F) {
	for _, fr := range testFrames(f) {
		f.Add(EncodeWire(fr))
	}
	sparse := EncodeWire(NewEncoder(Spec{Quant: Int8, TopK: 0.1}).
		Encode(0, 0, make([]float64, 2*Block), filled(2*Block, 1)))
	f.Add(put32(sparse, 16, 0))             // zero-length sparse frame
	f.Add(put32(sparse, wireHeader, 1<<29)) // out-of-range index
	f.Add(sparse[:len(sparse)-10])          // truncated int8 payload
	f.Add([]byte{wireMagic, wireVersion})   // bare header stub
	f.Add(overfullFrame(2*Block, 0.1))      // k = dim in a topk=0.1 frame
	// Dense raw, dense int8 and sparse int8 between them hold and lack each
	// of Idx, Val, Q and Scales.
	all := testFrames(f)
	held := []*Frame{all[0], all[2], all[5]}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeWire(data, 1<<16)
		for _, h := range held {
			reused := h.Clone()
			errInto := DecodeWireInto(reused, data, 1<<16)
			if (errInto == nil) != (err == nil) || err == nil && !reflect.DeepEqual(reused, fr) {
				t.Fatalf("decoding into a frame that held a %q frame: %v, a fresh decode: %v", h.Spec, errInto, err)
			}
		}
		if err != nil {
			return
		}
		if fr.Dim <= 0 || fr.Dim > 1<<16 {
			t.Fatalf("accepted dim %d beyond maxDim", fr.Dim)
		}
		if again := EncodeWire(fr); !reflect.DeepEqual(again, data) {
			t.Fatalf("accepted frame does not re-encode canonically")
		}
		global := make([]float64, fr.Dim)
		dirty := make([]float64, fr.Dim)
		for i := range global {
			global[i] = float64(i%7) - 3.25
			dirty[i] = math.Float64frombits(0x7FF8_0000_DEAD_0000 | uint64(i)) // NaN with a payload
		}
		want := fr.Reconstruct(global)
		fr.ReconstructInto(dirty, global)
		for i := range want {
			if math.Float64bits(dirty[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ReconstructInto over garbage: coordinate %d = %v, Reconstruct gives %v", i, dirty[i], want[i])
			}
		}
	})
}
