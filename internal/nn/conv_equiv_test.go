package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func maxRelDiff(t *testing.T, got, want *tensor.Tensor) float64 {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("size mismatch %v vs %v", got.Shape, want.Shape)
	}
	worst := 0.0
	for i := range got.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		scale := math.Max(1, math.Max(math.Abs(got.Data[i]), math.Abs(want.Data[i])))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

// forwardNaive is the original 7-deep scalar-loop forward pass of Conv2D,
// the reference the GEMM lowering is tested against.
func (c *Conv2D) forwardNaive(x *tensor.Tensor) *tensor.Tensor {
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if inC != c.InC {
		panic(fmt.Sprintf("nn: conv input channels %d, want %d", inC, c.InC))
	}
	outH, outW := c.outSize(h), c.outSize(w)
	out := tensor.New(batch, c.OutC, outH, outW)
	k, s, p := c.Kernel, c.Stride, c.Pad

	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			bv := c.bias.Data[oc]
			for oh := 0; oh < outH; oh++ {
				ihBase := oh*s - p
				for ow := 0; ow < outW; ow++ {
					iwBase := ow*s - p
					sum := bv
					for ic := 0; ic < inC; ic++ {
						xBase := ((b*inC + ic) * h) * w
						wBase := ((oc*inC + ic) * k) * k
						for kh := 0; kh < k; kh++ {
							ih := ihBase + kh
							if ih < 0 || ih >= h {
								continue
							}
							xRow := xBase + ih*w
							wRow := wBase + kh*k
							for kw := 0; kw < k; kw++ {
								iw := iwBase + kw
								if iw < 0 || iw >= w {
									continue
								}
								sum += x.Data[xRow+iw] * c.weight.Data[wRow+kw]
							}
						}
					}
					out.Data[((b*c.OutC+oc)*outH+oh)*outW+ow] = sum
				}
			}
		}
	}
	return out
}

// backwardNaive is the original scalar-loop backward pass of Conv2D over
// the input x of the forward pass, the reference the GEMM lowering is
// tested against.
func (c *Conv2D) backwardNaive(x, grad *tensor.Tensor) *tensor.Tensor {
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	dx := tensor.New(batch, inC, h, w)
	k, s, p := c.Kernel, c.Stride, c.Pad

	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oh := 0; oh < outH; oh++ {
				ihBase := oh*s - p
				for ow := 0; ow < outW; ow++ {
					iwBase := ow*s - p
					g := grad.Data[((b*c.OutC+oc)*outH+oh)*outW+ow]
					if g == 0 {
						continue
					}
					c.gradB.Data[oc] += g
					for ic := 0; ic < inC; ic++ {
						xBase := ((b*inC + ic) * h) * w
						wBase := ((oc*inC + ic) * k) * k
						for kh := 0; kh < k; kh++ {
							ih := ihBase + kh
							if ih < 0 || ih >= h {
								continue
							}
							xRow := xBase + ih*w
							wRow := wBase + kh*k
							for kw := 0; kw < k; kw++ {
								iw := iwBase + kw
								if iw < 0 || iw >= w {
									continue
								}
								c.gradW.Data[wRow+kw] += g * x.Data[xRow+iw]
								dx.Data[xRow+iw] += g * c.weight.Data[wRow+kw]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// forwardNaive is the original scatter-loop forward pass of
// ConvTranspose2D, the reference the GEMM lowering is tested against.
func (c *ConvTranspose2D) forwardNaive(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		c.lastInput = x
	}
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if inC != c.InC {
		panic(fmt.Sprintf("nn: convT input channels %d, want %d", inC, c.InC))
	}
	outH, outW := c.outSize(h), c.outSize(w)
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: convT output size %dx%d not positive", outH, outW))
	}
	out := tensor.New(batch, c.OutC, outH, outW)
	k, s, p := c.Kernel, c.Stride, c.Pad

	// Bias.
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			base := ((b*c.OutC + oc) * outH) * outW
			bv := c.bias.Data[oc]
			for i := 0; i < outH*outW; i++ {
				out.Data[base+i] = bv
			}
		}
	}
	// Scatter contributions.
	for b := 0; b < batch; b++ {
		for ic := 0; ic < inC; ic++ {
			xBase := ((b*inC + ic) * h) * w
			for ih := 0; ih < h; ih++ {
				ohBase := ih*s - p
				for iw := 0; iw < w; iw++ {
					xv := x.Data[xBase+ih*w+iw]
					if xv == 0 {
						continue
					}
					owBase := iw*s - p
					for oc := 0; oc < c.OutC; oc++ {
						oBase := ((b*c.OutC + oc) * outH) * outW
						wBase := ((ic*c.OutC + oc) * k) * k
						for kh := 0; kh < k; kh++ {
							oh := ohBase + kh
							if oh < 0 || oh >= outH {
								continue
							}
							oRow := oBase + oh*outW
							wRow := wBase + kh*k
							for kw := 0; kw < k; kw++ {
								ow := owBase + kw
								if ow < 0 || ow >= outW {
									continue
								}
								out.Data[oRow+ow] += xv * c.weight.Data[wRow+kw]
							}
						}
					}
				}
			}
		}
	}
	return out
}

// backwardNaive is the original scalar-loop backward pass of
// ConvTranspose2D, the reference the GEMM lowering is tested against.
func (c *ConvTranspose2D) backwardNaive(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	dx := tensor.New(batch, inC, h, w)
	k, s, p := c.Kernel, c.Stride, c.Pad

	// Bias gradient.
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			base := ((b*c.OutC + oc) * outH) * outW
			sum := 0.0
			for i := 0; i < outH*outW; i++ {
				sum += grad.Data[base+i]
			}
			c.gradB.Data[oc] += sum
		}
	}
	// Weight and input gradients: mirror the forward scatter.
	for b := 0; b < batch; b++ {
		for ic := 0; ic < inC; ic++ {
			xBase := ((b*inC + ic) * h) * w
			for ih := 0; ih < h; ih++ {
				ohBase := ih*s - p
				for iw := 0; iw < w; iw++ {
					owBase := iw*s - p
					xv := x.Data[xBase+ih*w+iw]
					var dxv float64
					for oc := 0; oc < c.OutC; oc++ {
						oBase := ((b*c.OutC + oc) * outH) * outW
						wBase := ((ic*c.OutC + oc) * k) * k
						for kh := 0; kh < k; kh++ {
							oh := ohBase + kh
							if oh < 0 || oh >= outH {
								continue
							}
							oRow := oBase + oh*outW
							wRow := wBase + kh*k
							for kw := 0; kw < k; kw++ {
								ow := owBase + kw
								if ow < 0 || ow >= outW {
									continue
								}
								g := grad.Data[oRow+ow]
								c.gradW.Data[wRow+kw] += g * xv
								dxv += g * c.weight.Data[wRow+kw]
							}
						}
					}
					dx.Data[xBase+ih*w+iw] = dxv
				}
			}
		}
	}
	return dx
}

// checkConvCase runs one forward+backward through the GEMM-lowered Conv2D
// and through the naive reference on an identically initialized
// clone, asserting outputs, input gradients and parameter gradients agree.
func checkConvCase(t *testing.T, rng *rand.Rand, batch, inC, outC, size, kernel, stride, pad int) {
	t.Helper()
	fast := NewConv2D(rng, inC, outC, kernel, stride, pad)
	slow := fast.Clone().(*Conv2D)
	pool := tensor.NewPool()
	fast.setScratch(pool)

	x := tensor.New(batch, inC, size, size)
	x.FillNormal(rng, 0, 1)
	outH := fast.outSize(size)
	if outH <= 0 {
		t.Fatalf("invalid case: outH %d", outH)
	}
	grad := tensor.New(batch, outC, outH, outH)
	grad.FillNormal(rng, 0, 1)

	outFast := fast.Forward(x, true)
	outSlow := slow.forwardNaive(x)
	if d := maxRelDiff(t, outFast, outSlow); d > 1e-9 {
		t.Errorf("conv fwd b=%d c=%d→%d s=%d k=%d st=%d p=%d: rel diff %g", batch, inC, outC, size, kernel, stride, pad, d)
	}
	dxFast := fast.Backward(grad)
	dxSlow := slow.backwardNaive(x, grad)
	if d := maxRelDiff(t, dxFast, dxSlow); d > 1e-9 {
		t.Errorf("conv bwd dx b=%d c=%d→%d s=%d k=%d st=%d p=%d: rel diff %g", batch, inC, outC, size, kernel, stride, pad, d)
	}
	if d := maxRelDiff(t, fast.gradW, slow.gradW); d > 1e-9 {
		t.Errorf("conv bwd gradW: rel diff %g", d)
	}
	if d := maxRelDiff(t, fast.gradB, slow.gradB); d > 1e-9 {
		t.Errorf("conv bwd gradB: rel diff %g", d)
	}
}

// TestConv2DMatchesNaive covers the paper's layer shapes plus randomized
// stride/padding edge cases and the batch=1 path.
func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][7]int{
		// batch, inC, outC, size, kernel, stride, pad
		{1, 1, 8, 16, 3, 2, 1},  // FashionCNN conv1, batch=1
		{16, 1, 8, 16, 3, 2, 1}, // FashionCNN conv1
		{16, 8, 16, 8, 3, 2, 1}, // FashionCNN conv2
		{4, 3, 8, 16, 3, 1, 1},  // DeepCNN conv1
		{2, 16, 32, 8, 3, 1, 1}, // DeepCNN conv5
		{3, 2, 5, 7, 3, 1, 0},   // no padding
		{2, 2, 3, 9, 5, 2, 2},   // larger kernel
		{1, 1, 1, 4, 3, 3, 1},   // stride > kernel reach
		{2, 3, 4, 5, 5, 1, 4},   // padding wider than the image edge
		{1, 2, 2, 6, 1, 1, 0},   // 1×1 kernel
		{2, 1, 3, 5, 2, 2, 0},   // even kernel
	}
	for _, c := range cases {
		checkConvCase(t, rng, c[0], c[1], c[2], c[3], c[4], c[5], c[6])
	}
	for i := 0; i < 10; i++ {
		size := 3 + rng.Intn(10)
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		if (size+2*pad-kernel)/stride+1 <= 0 || size+2*pad < kernel {
			continue
		}
		checkConvCase(t, rng, 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(5), size, kernel, stride, pad)
	}
}

func checkConvTCase(t *testing.T, rng *rand.Rand, batch, inC, outC, size, kernel, stride, pad int) {
	t.Helper()
	fast := NewConvTranspose2D(rng, inC, outC, kernel, stride, pad)
	slow := fast.Clone().(*ConvTranspose2D)
	pool := tensor.NewPool()
	fast.setScratch(pool)

	x := tensor.New(batch, inC, size, size)
	x.FillNormal(rng, 0, 1)
	outH := fast.outSize(size)
	if outH <= 0 {
		t.Fatalf("invalid case: outH %d", outH)
	}
	grad := tensor.New(batch, outC, outH, outH)
	grad.FillNormal(rng, 0, 1)

	outFast := fast.Forward(x, true)
	outSlow := slow.forwardNaive(x, true)
	if d := maxRelDiff(t, outFast, outSlow); d > 1e-9 {
		t.Errorf("convT fwd b=%d c=%d→%d s=%d k=%d st=%d p=%d: rel diff %g", batch, inC, outC, size, kernel, stride, pad, d)
	}
	dxFast := fast.Backward(grad)
	dxSlow := slow.backwardNaive(grad)
	if d := maxRelDiff(t, dxFast, dxSlow); d > 1e-9 {
		t.Errorf("convT bwd dx b=%d c=%d→%d s=%d k=%d st=%d p=%d: rel diff %g", batch, inC, outC, size, kernel, stride, pad, d)
	}
	if d := maxRelDiff(t, fast.gradW, slow.gradW); d > 1e-9 {
		t.Errorf("convT bwd gradW: rel diff %g", d)
	}
	if d := maxRelDiff(t, fast.gradB, slow.gradB); d > 1e-9 {
		t.Errorf("convT bwd gradB: rel diff %g", d)
	}
}

// TestConvTranspose2DMatchesNaive covers the generator's layer shapes plus
// randomized stride/padding edge cases and the batch=1 path.
func TestConvTranspose2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][7]int{
		{1, 8, 16, 4, 4, 2, 1},  // generator convT1, batch=1
		{20, 8, 16, 4, 4, 2, 1}, // generator convT1
		{4, 16, 8, 8, 4, 2, 1},  // generator convT2
		{2, 3, 4, 5, 3, 1, 0},   // stride 1
		{1, 2, 3, 4, 3, 3, 0},   // stride > kernel: gaps in the scatter
		{2, 2, 2, 5, 4, 2, 2},   // heavy padding trims the output
		{1, 1, 1, 3, 1, 1, 0},   // 1×1 kernel
	}
	for _, c := range cases {
		checkConvTCase(t, rng, c[0], c[1], c[2], c[3], c[4], c[5], c[6])
	}
	for i := 0; i < 8; i++ {
		size := 2 + rng.Intn(6)
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(2)
		if (size-1)*stride-2*pad+kernel <= 0 {
			continue
		}
		checkConvTCase(t, rng, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(4), size, kernel, stride, pad)
	}
}

// TestConvWorkerCountInvariance asserts a training step's gradients are
// bit-identical however many workers the batch fan-out uses.
func TestConvWorkerCountInvariance(t *testing.T) {
	defer tensor.SetWorkers(0)
	build := func() (*Conv2D, *tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(5))
		l := NewConv2D(rng, 3, 8, 3, 2, 1)
		l.setScratch(tensor.NewPool())
		x := tensor.New(9, 3, 12, 12)
		x.FillNormal(rng, 0, 1)
		g := tensor.New(9, 8, l.outSize(12), l.outSize(12))
		g.FillNormal(rng, 0, 1)
		return l, x, g
	}
	tensor.SetWorkers(1)
	ref, x, g := build()
	refOut := ref.Forward(x, true)
	refDx := ref.Backward(g)
	for _, w := range []int{2, 3, 7} {
		tensor.SetWorkers(w)
		l, x, g := build()
		out := l.Forward(x, true)
		for i := range out.Data {
			if out.Data[i] != refOut.Data[i] {
				t.Fatalf("workers=%d: forward differs at %d", w, i)
			}
		}
		dx := l.Backward(g)
		for i := range dx.Data {
			if dx.Data[i] != refDx.Data[i] {
				t.Fatalf("workers=%d: dx differs at %d", w, i)
			}
		}
		for i := range l.gradW.Data {
			if l.gradW.Data[i] != ref.gradW.Data[i] {
				t.Fatalf("workers=%d: gradW differs at %d", w, i)
			}
		}
	}
}

// rowMajorConv is the lowering both convolution layers ran before their
// patch matrix was written in kernel panels: refIm2col's row-major matrix
// through the public row-major GEMM entry points, refCol2im for the scatter,
// per-sample partials reduced in batch order onto zero gradients. It is kept
// as the reference the panel lowering must equal bit for bit.
func rowMajorConv(x, grad *tensor.Tensor, weight, bias []float64, inC, outC, kk, stride, pad int) (out, dx, gradW, gradB []float64) {
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	hw, oHW, ck2 := h*w, outH*outW, inC*kk*kk
	out = make([]float64, batch*outC*oHW)
	dx = make([]float64, batch*inC*hw)
	gradW, gradB = make([]float64, outC*ck2), make([]float64, outC)
	dw, dCols := make([]float64, outC*ck2), make([]float64, ck2*oHW)
	for b := 0; b < batch; b++ {
		cols := refIm2col(x.Data[b*inC*hw:(b+1)*inC*hw], inC, h, w, kk, stride, pad, outH, outW)
		ob, gb := out[b*outC*oHW:(b+1)*outC*oHW], grad.Data[b*outC*oHW:(b+1)*outC*oHW]
		for i := range ob {
			ob[i] = bias[i/oHW]
		}
		tensor.GemmNN(ob, weight, cols, outC, ck2, oHW, true)
		tensor.GemmNT(dw, gb, cols, outC, oHW, ck2, false)
		tensor.GemmTN(dCols, weight, gb, ck2, outC, oHW, false)
		refCol2im(dx[b*inC*hw:(b+1)*inC*hw], dCols, inC, h, w, kk, stride, pad, outH, outW)
		reduceRef(gradW, gradB, dw, gb, oHW)
	}
	return out, dx, gradW, gradB
}

// rowMajorConvT is rowMajorConv for the transposed convolution, whose
// backward pass expands the output gradient and whose forward pass scatters.
func rowMajorConvT(x, grad *tensor.Tensor, weight, bias []float64, inC, outC, kk, stride, pad int) (out, dx, gradW, gradB []float64) {
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	hw, oHW, ock2 := h*w, outH*outW, outC*kk*kk
	out = make([]float64, batch*outC*oHW)
	dx = make([]float64, batch*inC*hw)
	gradW, gradB = make([]float64, inC*ock2), make([]float64, outC)
	dw, scat := make([]float64, inC*ock2), make([]float64, ock2*hw)
	for b := 0; b < batch; b++ {
		xb := x.Data[b*inC*hw : (b+1)*inC*hw]
		ob, gb := out[b*outC*oHW:(b+1)*outC*oHW], grad.Data[b*outC*oHW:(b+1)*outC*oHW]
		for i := range ob {
			ob[i] = bias[i/oHW]
		}
		tensor.GemmTN(scat, weight, xb, ock2, inC, hw, false)
		refCol2im(ob, scat, outC, outH, outW, kk, stride, pad, h, w)
		dCols := refIm2col(gb, outC, outH, outW, kk, stride, pad, h, w)
		tensor.GemmNT(dw, xb, dCols, inC, hw, ock2, false)
		tensor.GemmNN(dx[b*inC*hw:(b+1)*inC*hw], weight, dCols, inC, ock2, hw, false)
		reduceRef(gradW, gradB, dw, gb, oHW)
	}
	return out, dx, gradW, gradB
}

// reduceRef adds one sample's weight-gradient partial and its per-channel
// output-gradient sums, each one running sum in element order.
func reduceRef(gradW, gradB, dw, gb []float64, oHW int) {
	for i := range gradW {
		gradW[i] += dw[i]
	}
	for i, v := range gb {
		gradB[i/oHW] += v
	}
}

// TestConvBitEqualRowMajorLowering holds forward, dW, dB and dx of Conv2D
// and ConvTranspose2D to the row-major lowering with ==: the zoo's conv
// layers, the generator's transposed convolutions, DFA-R's filter layer,
// shapes with small products, ragged panels in both orders and a
// single-pixel output, at 1, 2 and 8 workers, pooled and not. It runs on
// the purego build too, where both sides are the scalar tile.
func TestConvBitEqualRowMajorLowering(t *testing.T) {
	defer tensor.SetWorkers(0)
	equal := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	for _, c := range []struct {
		name                   string
		transposed             bool
		batch, inC, outC, size int
		kk, stride, pad        int
	}{
		{"fashion1", false, 16, 1, 8, 16, 3, 2, 1},
		{"fashion2", false, 16, 8, 16, 8, 3, 2, 1},
		{"deep1", false, 5, 3, 8, 16, 3, 1, 1},
		{"deep2", false, 3, 8, 8, 16, 3, 2, 1},
		{"deep3", false, 3, 8, 16, 8, 3, 1, 1},
		{"deep4", false, 3, 16, 16, 8, 3, 2, 1},
		{"deep5", false, 3, 16, 32, 4, 3, 1, 1},
		{"deep6", false, 20, 32, 32, 4, 3, 2, 1},
		{"generator-conv", false, 4, 8, 3, 16, 3, 1, 1},
		{"dfar-filter", false, 1, 3, 3, 16, 3, 1, 1},
		{"below-simd", false, 3, 1, 2, 5, 3, 1, 1},        // 2×9×25 MACs
		{"below-simd-ragged", false, 2, 2, 3, 5, 2, 2, 0}, // 4 positions, 8 patch rows
		{"one-pixel", false, 2, 3, 5, 3, 3, 1, 0},
		{"wide-pad", false, 2, 2, 4, 5, 5, 1, 4},
		{"generatorT1", true, 20, 8, 16, 4, 4, 2, 1},
		{"generatorT2", true, 4, 16, 8, 8, 4, 2, 1},
		{"T-below-simd", true, 2, 2, 1, 3, 3, 1, 0},
		{"T-stride3", true, 2, 2, 3, 4, 3, 3, 0},
		{"T-heavy-pad", true, 3, 2, 2, 5, 4, 2, 2},
	} {
		rng := rand.New(rand.NewSource(16))
		var layer interface {
			Layer
			scratchUser
			outSize(int) int
		}
		if c.transposed {
			layer = NewConvTranspose2D(rng, c.inC, c.outC, c.kk, c.stride, c.pad)
		} else {
			layer = NewConv2D(rng, c.inC, c.outC, c.kk, c.stride, c.pad)
		}
		weight, bias := layer.Params()[0].Data, layer.Params()[1].Data
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		x := tensor.New(c.batch, c.inC, c.size, c.size)
		x.FillNormal(rng, 0, 1)
		outSize := layer.outSize(c.size)
		grad := tensor.New(c.batch, c.outC, outSize, outSize)
		grad.FillNormal(rng, 0, 1)
		ref := rowMajorConv
		if c.transposed {
			ref = rowMajorConvT
		}
		tensor.SetWorkers(1)
		wantOut, wantDx, wantW, wantB := ref(x, grad, weight, bias, c.inC, c.outC, c.kk, c.stride, c.pad)
		for _, workers := range []int{1, 2, 8} {
			for _, pool := range []*tensor.Pool{nil, tensor.NewPool()} {
				t.Run(fmt.Sprintf("%s/workers=%d/pooled=%v", c.name, workers, pool != nil), func(t *testing.T) {
					tensor.SetWorkers(workers)
					layer.setScratch(pool)
					for pass := 0; pass < 2; pass++ { // the second pass reads a dirty arena
						pool.Reset()
						for _, g := range layer.Grads() {
							g.Zero()
						}
						equal(t, "out", layer.Forward(x, true).Data, wantOut)
						equal(t, "dx", layer.Backward(grad).Data, wantDx)
						equal(t, "gradW", layer.Grads()[0].Data, wantW)
						equal(t, "gradB", layer.Grads()[1].Data, wantB)
					}
				})
			}
		}
	}
}

// TestConvHelperPathBitIdentical: with the worker slots free, a warm
// Conv2D and ConvTranspose2D training pass at 2 and 8 workers runs its
// batch chunks on helpers — it allocates their wait state, which the same
// pass on one worker (and, per the zero-allocation guards, on a held slot)
// never does — and gives the bits of one worker.
func TestConvHelperPathBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(0)
	rng := rand.New(rand.NewSource(41))
	for _, layer := range []interface {
		Layer
		scratchUser
		outSize(int) int
	}{NewConv2D(rng, 3, 8, 3, 1, 1), NewConvTranspose2D(rng, 8, 3, 4, 2, 1)} {
		inC := layer.Params()[0].Shape[1]
		if _, ok := layer.(*ConvTranspose2D); ok {
			inC = layer.Params()[0].Shape[0]
		}
		x := tensor.New(8, inC, 8, 8)
		x.FillNormal(rng, 0, 1)
		grad := tensor.New(8, layer.Params()[1].Len(), layer.outSize(8), layer.outSize(8))
		grad.FillNormal(rng, 0, 1)
		pool := tensor.NewPool()
		layer.setScratch(pool)
		var want [][]float64
		for _, workers := range []int{1, 2, 8} {
			tensor.SetWorkers(workers)
			grads := layer.Grads()
			got := [][]float64{nil, nil, grads[0].Data, grads[1].Data}
			pass := func() {
				pool.Reset()
				for _, g := range grads {
					g.Zero()
				}
				got[0] = layer.Forward(x, true).Data
				got[1] = layer.Backward(grad).Data
			}
			for i := 0; i < 3; i++ { // warm the arena at this width and the GEMM pack pools
				pass()
			}
			if allocs := testing.AllocsPerRun(1, pass); !raceEnabled && (allocs > 0) != (workers > 1) {
				t.Errorf("%T at %d workers allocates %v objects per pass: helpers started %v, want %v",
					layer, workers, allocs, allocs > 0, workers > 1)
			}
			if want == nil {
				for _, g := range got {
					want = append(want, append([]float64(nil), g...))
				}
				continue
			}
			for i, name := range []string{"out", "dx", "gradW", "gradB"} {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%T at %d workers: %s[%d] = %v, want %v (bit-exact)", layer, workers, name, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}
