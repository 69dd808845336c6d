package codec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Quant: Raw},
		{Quant: FP16},
		{Quant: Int8},
		{Quant: Raw, TopK: 0.1},
		{Quant: Int8, TopK: 0.05, EF: true},
		{Quant: FP16, EF: true},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", s.String(), got, s)
		}
	}
	if s, err := ParseSpec("none"); err != nil || s.Enabled() {
		t.Fatalf("ParseSpec(none) = %+v, %v", s, err)
	}
	for _, bad := range []string{"zstd", "int8,topk=1.5", "int8,wat", "raw,ef", "topk=0.1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{TopK: 0.1},                 // topk without codec
		{EF: true},                  // ef without codec
		{Quant: Raw, EF: true},      // ef without loss
		{Quant: Int8, TopK: 1.0},    // topk out of range
		{Quant: Int8, TopK: -0.1},   // negative
		{Quant: Kind(9), TopK: 0.1}, // unknown kind
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted", s)
		}
	}
	if err := (Spec{Quant: Int8, TopK: 0.1, EF: true}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestFP16RoundTrip(t *testing.T) {
	// Exactly representable values round-trip bit-identically.
	for _, v := range []float64{0, 1, -1, 0.5, 65504, -65504, 0.0009765625} {
		h := f64ToF16(v)
		if got := f16ToF64(h); got != v {
			t.Fatalf("fp16 round trip of representable %v: got %v", v, got)
		}
		if h2 := f64ToF16(f16ToF64(h)); h2 != h {
			t.Fatalf("fp16 re-encode of %v: bits %#04x -> %#04x", v, h, h2)
		}
	}
	// Relative error bound 2^-11 for normal-range values; saturation.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(9)-4))
		got := f16ToF64(f64ToF16(v))
		if math.Abs(v) >= 6.2e-5 && math.Abs(v) <= 65504 {
			if math.Abs(got-v) > math.Abs(v)*math.Pow(2, -11) {
				t.Fatalf("fp16(%v) = %v: error beyond 2^-11 relative", v, got)
			}
		}
	}
	if got := f16ToF64(f64ToF16(1e6)); got != 65504 {
		t.Fatalf("fp16 overflow saturates to 65504, got %v", got)
	}
	if got := f16ToF64(f64ToF16(-1e6)); got != -65504 {
		t.Fatalf("fp16 negative overflow saturates to -65504, got %v", got)
	}
}

func TestQuantizeInt8Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 3*Block+17)
	for i := range vals {
		vals[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(5)-2))
	}
	// One all-zero block in the middle.
	for i := Block; i < 2*Block; i++ {
		vals[i] = 0
	}
	quantize := func(client, round int) ([]int8, []float64) {
		q, scales := make([]int8, len(vals)), make([]float64, (len(vals)+Block-1)/Block)
		rs := newRoundStream(client, round)
		quantizeInt8(vals, q, scales, &rs)
		return q, scales
	}
	q, scales := quantize(3, 9)
	if len(scales) != 4 {
		t.Fatalf("scales = %d blocks, want 4", len(scales))
	}
	if scales[1] != 0 {
		t.Fatalf("zero block scale = %v, want 0", scales[1])
	}
	for i, v := range vals {
		dq := scales[i/Block] * float64(q[i])
		if err := math.Abs(dq - v); err > scales[i/Block]+1e-300 {
			t.Fatalf("elem %d: |dq-v| = %v beyond one quantization step %v", i, err, scales[i/Block])
		}
		if q[i] > 127 || q[i] < -127 {
			t.Fatalf("elem %d: q = %d outside ±127", i, q[i])
		}
	}
	// Deterministic replay: same (client, round) stream, same output.
	q2, scales2 := quantize(3, 9)
	if !reflect.DeepEqual(q, q2) || !reflect.DeepEqual(scales, scales2) {
		t.Fatal("quantizeInt8 not deterministic for a fixed stream key")
	}
	// Different round: different rounding decisions somewhere.
	q3, _ := quantize(3, 10)
	if reflect.DeepEqual(q, q3) {
		t.Fatal("distinct rounds produced identical stochastic rounding")
	}
}

func TestEncoderRawDenseBitIdentical(t *testing.T) {
	enc := NewEncoder(Spec{Quant: Raw})
	global := []float64{1, 2, 3, 4}
	weights := []float64{1.1, 1.9, 3.00000001, -4}
	f := enc.Encode(0, 0, global, weights)
	if f.IsDelta() {
		t.Fatal("dense raw frame must carry weights, not a delta")
	}
	got := f.Reconstruct(global)
	if !reflect.DeepEqual(got, weights) {
		t.Fatalf("raw reconstruct = %v, want bit-identical %v", got, weights)
	}
}

func TestEncoderTopK(t *testing.T) {
	enc := NewEncoder(Spec{Quant: Raw, TopK: 0.25})
	dim := 40
	global := make([]float64, dim)
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = float64(i%7) * 0.1
	}
	f := enc.Encode(1, 2, global, weights)
	if want := 10; len(f.Idx) != want { // ceil(0.25*40)
		t.Fatalf("kept %d coordinates, want %d", len(f.Idx), want)
	}
	for t2 := 1; t2 < len(f.Idx); t2++ {
		if f.Idx[t2] <= f.Idx[t2-1] {
			t.Fatal("indices not strictly ascending")
		}
	}
	// All kept values must be the largest magnitudes (0.6 here).
	for t2, id := range f.Idx {
		if f.Val[t2] != weights[id] {
			t.Fatalf("kept value %v at %d, want %v", f.Val[t2], id, weights[id])
		}
		if math.Abs(weights[id]) < 0.5 { // top-10 of 40 coords = the 0.6s and 0.5s
			t.Fatalf("kept coordinate %d with |v|=%v, not among the largest", id, math.Abs(weights[id]))
		}
	}
	// Reconstruct: kept coords exact, dropped coords equal global.
	rec := f.Reconstruct(global)
	kept := map[int32]bool{}
	for _, id := range f.Idx {
		kept[id] = true
	}
	for i := range rec {
		want := global[i]
		if kept[int32(i)] {
			want = weights[i]
		}
		if rec[i] != want {
			t.Fatalf("rec[%d] = %v, want %v", i, rec[i], want)
		}
	}
}

func TestErrorFeedbackCarriesDroppedMass(t *testing.T) {
	spec := Spec{Quant: Raw, TopK: 0.1, EF: true}
	enc := NewEncoder(spec)
	dim := 20
	global := make([]float64, dim)
	// Client persistently pushes coordinate 5 a little and coordinate 9 a
	// lot; with k=2 only 9 (and the next largest) survive round one.
	weights := make([]float64, dim)
	weights[9] = 1.0
	weights[5] = 0.1
	weights[3] = 0.2
	f1 := enc.Encode(0, 0, global, weights)
	dropped5 := true
	for _, id := range f1.Idx {
		if id == 5 {
			dropped5 = false
		}
	}
	if !dropped5 {
		t.Skip("coordinate 5 unexpectedly kept; test premise void")
	}
	// Round two: client submits no new movement; the residual alone must
	// resurface coordinate 5's mass.
	f2 := enc.Encode(0, 1, global, global)
	found := false
	for t2, id := range f2.Idx {
		if id == 5 && f2.Val[t2] == 0.1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("round-2 frame %v / %v does not carry coordinate 5's residual", f2.Idx, f2.Val)
	}
}

func TestEncoderDeterministicAcrossEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := 2*Block + 31
	global := make([]float64, dim)
	weights := make([]float64, dim)
	for i := range weights {
		global[i] = rng.NormFloat64()
		weights[i] = global[i] + 0.01*rng.NormFloat64()
	}
	for _, spec := range []Spec{
		{Quant: Int8},
		{Quant: Int8, TopK: 0.1},
		{Quant: FP16, TopK: 0.2, EF: true},
	} {
		a := NewEncoder(spec).Encode(7, 3, global, weights)
		b := NewEncoder(spec).Encode(7, 3, global, weights)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %q: two fresh encoders disagree", spec)
		}
		// AddDelta and Reconstruct agree exactly.
		rec := a.Reconstruct(global)
		alt := make([]float64, dim)
		copy(alt, global)
		a.AddDelta(alt)
		if !reflect.DeepEqual(rec, alt) {
			t.Fatalf("spec %q: Reconstruct and AddDelta disagree", spec)
		}
	}
}

func TestInt8DenseReconstructError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dim := 4 * Block
	global := make([]float64, dim)
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 0.02 * rng.NormFloat64()
	}
	f := NewEncoder(Spec{Quant: Int8}).Encode(0, 0, global, weights)
	rec := f.Reconstruct(global)
	for i := range rec {
		step := f.Scales[i/Block]
		if math.Abs(rec[i]-weights[i]) > step {
			t.Fatalf("coord %d: error %v beyond one step %v", i, rec[i]-weights[i], step)
		}
	}
}
