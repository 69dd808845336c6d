package codec

import (
	"reflect"
	"slices"
	"testing"
)

// frameSpecs covers every frame layout: dense and sparse under each
// quantization, with and without error feedback.
var frameSpecs = []Spec{
	{Quant: Raw},
	{Quant: FP16},
	{Quant: Int8},
	{Quant: FP16, EF: true},
	{Quant: Int8, EF: true},
	{Quant: Raw, TopK: 0.1},
	{Quant: FP16, TopK: 0.25, EF: true},
	{Quant: Int8, TopK: 0.1, EF: true},
}

// TestEncodeIntoReusedFrame: one frame refilled by EncodeInto — last holding
// whatever layout the previous spec gave it — equals the fresh frame Encode
// gives for the same (client, round), round after round, while error
// feedback moves each client's delta.
func TestEncodeIntoReusedFrame(t *testing.T) {
	global, ws := roundWeights(3, 2*Block+77)
	// The last client moved no coordinate of the second block: a dense frame
	// quantizes it to a zero block, which must not keep the values the
	// previous client's frame held there.
	still := slices.Clone(ws[0])
	copy(still[Block:2*Block], global[Block:2*Block])
	ws = append(ws, still)
	var f Frame
	for _, spec := range frameSpecs {
		fresh, reused := NewEncoder(spec), NewEncoder(spec)
		for round := range 3 {
			for c, w := range ws {
				want := fresh.Encode(c, round, global, w)
				reused.EncodeInto(&f, c, round, global, w)
				if !reflect.DeepEqual(&f, want) {
					t.Fatalf("spec %q round %d client %d: the refilled frame differs from a fresh encode", spec, round, c)
				}
			}
		}
	}
}

// TestDecodeWireIntoReusedFrame: decoding into one frame that last held any
// other layout — every layout follows and precedes every other kind — gives
// exactly what a fresh DecodeWire gives.
func TestDecodeWireIntoReusedFrame(t *testing.T) {
	frames := testFrames(t)
	back := slices.Clone(frames)
	slices.Reverse(back)
	var f Frame
	for _, want := range slices.Concat(frames, back) {
		if err := DecodeWireInto(&f, EncodeWire(want), want.Dim); err != nil {
			t.Fatalf("spec %q: %v", want.Spec, err)
		}
		if !reflect.DeepEqual(&f, want) {
			t.Fatalf("spec %q: decoding into a reused frame differs from a fresh decode", want.Spec)
		}
	}
}

// TestEncodeIntoSteadyStateZeroAlloc: once a frame, the residuals and the
// selection scratch are warm, encoding a round's updates into one frame
// allocates nothing, under every layout.
func TestEncodeIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	global, ws := roundWeights(2, 4*Block+37)
	for _, spec := range frameSpecs {
		t.Run(spec.String(), func(t *testing.T) {
			enc := NewEncoder(spec)
			var f Frame
			round := 0
			encode := func() {
				round++
				for c, w := range ws {
					enc.EncodeInto(&f, c, round, global, w)
				}
			}
			for range 3 {
				encode()
			}
			if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
				t.Fatalf("a warm EncodeInto allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// TestDecodeWireIntoSteadyStateZeroAlloc: decoding a session's frame into
// the frame it decoded the last one into allocates nothing, under every
// layout.
func TestDecodeWireIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, fr := range testFrames(t) {
		t.Run(fr.Spec.String(), func(t *testing.T) {
			data := EncodeWire(fr)
			var f Frame
			decode := func() {
				if err := DecodeWireInto(&f, data, fr.Dim); err != nil {
					t.Fatal(err)
				}
			}
			decode()
			if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
				t.Fatalf("a warm DecodeWireInto allocates %v times per frame, want 0", allocs)
			}
		})
	}
}
