package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The activations as they were before they became one pass: copy the input,
// then overwrite it behind a data-dependent branch, with the ReLU mask in a
// []bool. Kept as the reference the bit patterns are pinned to.

func refReLUForward(x []float64) (out []float64, mask []bool) {
	out = append([]float64(nil), x...)
	mask = make([]bool, len(x))
	for i, v := range out {
		pos := v > 0
		if !pos {
			out[i] = 0
		}
		mask[i] = pos
	}
	return out, mask
}

func refReLUBackward(grad []float64, mask []bool) []float64 {
	out := append([]float64(nil), grad...)
	for i := range out {
		if !mask[i] {
			out[i] = 0
		}
	}
	return out
}

func refLeakyForward(x []float64, alpha float64) (out []float64, mask []bool) {
	out = append([]float64(nil), x...)
	mask = make([]bool, len(x))
	for i, v := range out {
		pos := v > 0
		if !pos {
			out[i] = alpha * v
		}
		mask[i] = pos
	}
	return out, mask
}

func refLeakyBackward(grad []float64, mask []bool, alpha float64) []float64 {
	out := append([]float64(nil), grad...)
	for i := range out {
		if !mask[i] {
			out[i] *= alpha
		}
	}
	return out
}

func refTanhForward(x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i, v := range out {
		out[i] = math.Tanh(v)
	}
	return out
}

func refTanhBackward(grad, y []float64) []float64 {
	out := append([]float64(nil), grad...)
	for i := range out {
		out[i] *= 1 - y[i]*y[i]
	}
	return out
}

func sameBits(t *testing.T, what string, got, want, in []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: input %x gives %x, want %x", what,
				math.Float64bits(in[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestActivationBits pins what the three activations do to every class of
// float64 — quiet and negative NaNs, both zeros, infinities, denormals,
// ordinary values — forward in train and eval mode and backward, for every
// pairing of an input class with a gradient class. The arena is poisoned
// first, so an output element the one-pass loops failed to write shows as a
// NaN with the poison's payload.
func TestActivationBits(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0xFFF8000000000001), // NaN, −NaN
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF), // largest denormals
		1, -1, 0.3, -2.5, math.MaxFloat64, -math.MaxFloat64,
	}
	var x, grad []float64
	for _, v := range special {
		for _, g := range special {
			x = append(x, v)
			grad = append(grad, g)
		}
	}
	origX, origGrad := append([]float64(nil), x...), append([]float64(nil), grad...)
	pool := tensor.NewPool()
	poison := func() {
		pool.Reset()
		junk := pool.Get(8 * len(x))
		for i := range junk {
			junk[i] = math.Float64frombits(0x7FF8_0000_0BAD_F00D)
		}
		pool.Reset()
	}
	xt := tensor.FromSlice(x, 1, len(x))
	gt := tensor.FromSlice(grad, 1, len(grad))
	const alpha = 0.2

	type layerCase struct {
		name     string
		layer    Layer
		forward  []float64
		backward []float64
	}
	reluOut, reluMask := refReLUForward(x)
	leakyOut, leakyMask := refLeakyForward(x, alpha)
	tanhOut := refTanhForward(x)
	cases := []layerCase{
		{"ReLU", NewReLU(), reluOut, refReLUBackward(grad, reluMask)},
		{"LeakyReLU", NewLeakyReLU(alpha), leakyOut, refLeakyBackward(grad, leakyMask, alpha)},
		{"Tanh", NewTanh(), tanhOut, refTanhBackward(grad, tanhOut)},
	}
	for _, c := range cases {
		c.layer.(scratchUser).setScratch(pool)
		poison()
		sameBits(t, c.name+" eval forward", c.layer.Forward(xt, false).Data, c.forward, x)
		poison()
		sameBits(t, c.name+" train forward", c.layer.Forward(xt, true).Data, c.forward, x)
		sameBits(t, c.name+" backward", c.layer.Backward(gt).Data, c.backward, grad)
		// An eval-mode pass in between must not disturb what Backward reads.
		poison()
		c.layer.Forward(xt, true)
		c.layer.Forward(tensor.New(1, len(x)), false)
		sameBits(t, c.name+" backward after an eval pass", c.layer.Backward(gt).Data, c.backward, grad)
	}
	sameBits(t, "input after the passes", x, origX, origX)
	sameBits(t, "gradient after the passes", grad, origGrad, origGrad)
}
