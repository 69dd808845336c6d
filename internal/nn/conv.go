package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over batched inputs of shape
// [batch, inC, H, W], producing [batch, outC, outH, outW] with
// outH = (H + 2*pad − kernel)/stride + 1.
//
// DFA-R's "filter layer" (Fig. 2 of the paper) is an instance of this layer:
// a single convolution mapping a static random image A to the synthetic
// image B, trained through the frozen global model.
//
// Both passes are GEMMs against the patch matrix of the sample, which is
// never stored row-major: the sample is zero-padded once (padInto) and the
// patch gather (tensor.PatchTables) expands it straight into the panels the
// GEMM kernel reads. Per sample, the forward pass is weight[outC, inC·k²]
// times the patch matrix, the weight gradient is the output gradient times
// the patch matrix transposed — the same gather with its two offset tables
// swapped, over the padded sample the train-mode forward pass kept — and
// the input gradient is weightᵀ times the output gradient, scattered back
// onto a zeroed padded buffer, whose interior is then the sample's input
// gradient (scatterInto). The GEMM reads the weights and the output
// gradient where they lie. Samples are fanned out over the kernel worker
// pool with per-chunk panel buffers and padded copies; the per-sample
// weight-gradient partials are reduced in batch order so results do not
// depend on the worker count.
type Conv2D struct {
	InC, OutC   int
	Kernel      int
	Stride, Pad int

	weight *tensor.Tensor // [outC, inC, k, k]
	bias   *tensor.Tensor // [outC]
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	padded *tensor.Tensor // the train-mode input, zero-padded: [batch, inC, h+2·pad, w+2·pad]
	geom   patchGeom      // of the input

	scratch  *tensor.Pool
	colsBufs [][]float64
	xpBufs   [][]float64
	dwBufs   [][]float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D creates a convolution layer with He-uniform initialized weights.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, pad int) *Conv2D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid conv config kernel=%d stride=%d pad=%d", kernel, stride, pad))
	}
	c := &Conv2D{
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
		weight: tensor.New(outC, inC, kernel, kernel),
		bias:   tensor.New(outC),
		gradW:  tensor.New(outC, inC, kernel, kernel),
		gradB:  tensor.New(outC),
	}
	fanIn := float64(inC * kernel * kernel)
	limit := math.Sqrt(6.0 / fanIn)
	c.weight.FillUniform(rng, -limit, limit)
	return c
}

// outSize returns the spatial output size for a given input size.
func (c *Conv2D) outSize(in int) int {
	return (in+2*c.Pad-c.Kernel)/c.Stride + 1
}

func (c *Conv2D) setScratch(p *tensor.Pool) { c.scratch = p }

// stageConvBufs refills the persistent buffer holders of a convolution
// layer from its scratch pool: per parallel chunk one patch buffer and one
// padded sample of xpSize (0 where the pass pads into kept slots or
// scatters nothing); when dwSize > 0, one weight-gradient partial per sample.
// Both Conv2D and ConvTranspose2D stage through this one helper. Patch
// buffers and partials are handed out uninitialised: the patch gather or a
// non-accumulating GEMM writes every element of the one, a non-accumulating
// GEMM of the other. A padded sample is handed out zeroed: padInto and
// ConvTranspose2D's bias fill write only its interior, and scatterInto
// clears it again, border and all, once it has copied the interior out.
func stageConvBufs(pool *tensor.Pool, colsBufs, xpBufs, dwBufs [][]float64, batch, colsSize, xpSize, dwSize int) (cols, xp, dw [][]float64) {
	nch := tensor.ChunkCount(batch, 1)
	colsBufs, xpBufs = colsBufs[:0], xpBufs[:0]
	for i := 0; i < nch; i++ {
		colsBufs = append(colsBufs, pool.GetUninit(colsSize))
		xpBufs = append(xpBufs, pool.Get(xpSize))
	}
	dwBufs = dwBufs[:0]
	if dwSize > 0 {
		for i := 0; i < batch; i++ {
			dwBufs = append(dwBufs, pool.GetUninit(dwSize))
		}
	}
	return colsBufs, xpBufs, dwBufs
}

// conv2DPass and convTPass are one batch pass of each convolution layer,
// handed by value to every chunk of its batch fan-out: the input (for
// Conv2D's backward pass, the padded input its forward pass kept), the
// output (forward) or output gradient (backward), the input gradient (nil
// when not wanted) and the weight operand; slots, in Conv2D's train-mode
// forward pass, is where each sample is padded. Their chunk methods are
// the fan-out's capture-free bodies, so a pass allocates nothing inline.
type (
	conv2DPass struct {
		c               *Conv2D
		x, y, dx, slots *tensor.Tensor
		w               tensor.PackedA
	}
	convTPass struct {
		c        *ConvTranspose2D
		x, y, dx *tensor.Tensor
		w        tensor.PackedA
	}
)

// reduceConvPartials folds the per-sample weight-gradient partials and the
// per-sample bias-gradient sums into gradW/gradB in batch order, the fixed
// reduction both convolution layers rely on for worker-count invariance.
func reduceConvPartials(gradW, gradB []float64, dwBufs [][]float64, grad []float64, batch, outC, oHW int) {
	for b := 0; b < batch; b++ {
		tensor.AddSlice(gradW, dwBufs[b])
		gb := grad[b*outC*oHW : (b+1)*outC*oHW]
		for oc := 0; oc < outC; oc++ {
			sum := gradB[oc]
			for _, v := range gb[oc*oHW : (oc+1)*oHW] {
				sum += v
			}
			gradB[oc] = sum
		}
	}
}

// Forward implements Layer.
// In train mode each sample is padded into its own zeroed slot of c.padded,
// which the backward pass gathers its weight gradient from; otherwise into
// the chunk's padded buffer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if inC != c.InC {
		panic(fmt.Sprintf("nn: conv input channels %d, want %d", inC, c.InC))
	}
	g := c.geom.at(inC, h, w, c.Kernel, c.Stride, c.Pad)
	oHW := g.posH * g.posW
	ck2 := inC * c.Kernel * c.Kernel
	out := c.scratch.GetTensorUninit(batch, c.OutC, g.posH, g.posW) // forwardChunk bias-fills every row
	xpSize, pass := g.xpLen, conv2DPass{c: c, x: x, y: out, w: tensor.PackA(c.weight.Data, c.OutC, ck2, oHW, false)}
	if train {
		//lint:allow poolescape read back by the Backward of the same arena cycle, in place of the input the other layers keep
		c.padded = c.scratch.GetView(c.scratch.Get(batch*g.xpLen), batch, inC, h+2*c.Pad, w+2*c.Pad)
		xpSize, pass.slots = 0, c.padded
	}
	c.colsBufs, c.xpBufs, c.dwBufs = stageConvBufs(c.scratch, c.colsBufs, c.xpBufs, c.dwBufs, batch, tensor.PanelBLen(ck2, oHW), xpSize, 0)
	tensor.ParallelChunks(batch, 1, len(c.colsBufs), pass, conv2DPass.forwardChunk)
	return out
}

// forwardChunk runs the GEMM-lowered forward pass for samples [lo, hi)
// using the chunk's staged buffers, padding each sample into its slot
// where the pass keeps them.
func (pass conv2DPass) forwardChunk(lo, hi, ch int) {
	c, x, out, wp := pass.c, pass.x, pass.y, pass.w
	inC, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	oHW := out.Shape[2] * out.Shape[3]
	g, cols, xp := &c.geom, c.colsBufs[ch], c.xpBufs[ch]
	for b := lo; b < hi; b++ {
		if pass.slots != nil {
			xp = pass.slots.Data[b*g.xpLen : (b+1)*g.xpLen]
		}
		padInto(xp, x.Data[b*inC*h*w:(b+1)*inC*h*w], inC, h, w, c.Pad)
		g.moves.GatherPanels(cols, xp, false)
		ob := out.Data[b*c.OutC*oHW : (b+1)*c.OutC*oHW]
		for oc := 0; oc < c.OutC; oc++ {
			row := ob[oc*oHW : (oc+1)*oHW]
			bv := c.bias.Data[oc]
			for i := range row {
				row[i] = bv
			}
		}
		tensor.GemmPanelB(ob, wp, cols, true)
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true, true)
}

// backward implements halfBackward. The parameter half is the transposed
// patch expansion of the padded input the forward pass kept, one
// weight-gradient partial per sample and their in-order reduction; the
// input half is weightᵀ times the output gradient, written row-major into
// the storage the parameter half is done with and scattered back through
// the chunk's padded buffer. Neither reads the other's result.
func (c *Conv2D) backward(grad *tensor.Tensor, params, input bool) *tensor.Tensor {
	xp := c.padded
	batch, inC, h, w := xp.Shape[0], xp.Shape[1], xp.Shape[2]-2*c.Pad, xp.Shape[3]-2*c.Pad
	outH, outW := grad.Shape[2], grad.Shape[3]
	oHW := outH * outW
	ck2 := inC * c.Kernel * c.Kernel
	var dx *tensor.Tensor
	if input {
		dx = c.scratch.GetTensorUninit(batch, inC, h, w) // scatterInto writes every element
	}
	colsSize, dwSize := ck2*oHW, 0
	if params {
		colsSize = tensor.PanelBLen(oHW, ck2) // at least ck2*oHW
		dwSize = c.OutC * ck2
	}
	g := c.geom.at(inC, h, w, c.Kernel, c.Stride, c.Pad)
	xpSize := 0            // a chunk's padded buffer is the input half's scatter target
	var wtp tensor.PackedA // weightᵀ, the left operand of the input half
	if input {
		xpSize = g.xpLen
		wtp = tensor.PackA(c.weight.Data, ck2, c.OutC, oHW, true)
	}
	c.colsBufs, c.xpBufs, c.dwBufs = stageConvBufs(c.scratch, c.colsBufs, c.xpBufs, c.dwBufs, batch, colsSize, xpSize, dwSize)
	tensor.ParallelChunks(batch, 1, len(c.colsBufs), conv2DPass{c: c, x: xp, y: grad, dx: dx, w: wtp}, conv2DPass.backwardChunk)
	if params {
		reduceConvPartials(c.gradW.Data, c.gradB.Data, c.dwBufs, grad.Data, batch, c.OutC, oHW)
	}
	return dx
}

// backwardChunk runs the GEMM-lowered backward pass for samples [lo, hi)
// of the padded input pass.x: the sample's weight-gradient partial when
// partials were staged, then, when dx was, the input gradient: weightᵀ
// times the output gradient, scattered onto the chunk's zeroed padded
// buffer and cropped out of it.
func (pass conv2DPass) backwardChunk(lo, hi, ch int) {
	c, xpad, grad, dx, wtp := pass.c, pass.x, pass.y, pass.dx, pass.w
	inC := xpad.Shape[1]
	h, w := xpad.Shape[2]-2*c.Pad, xpad.Shape[3]-2*c.Pad
	oHW := grad.Shape[2] * grad.Shape[3]
	ck2 := inC * c.Kernel * c.Kernel
	g, cols, xp := &c.geom, c.colsBufs[ch], c.xpBufs[ch]
	for b := lo; b < hi; b++ {
		gb := grad.Data[b*c.OutC*oHW : (b+1)*c.OutC*oHW]
		if len(c.dwBufs) > 0 {
			g.moves.GatherPanels(cols, xpad.Data[b*g.xpLen:(b+1)*g.xpLen], true)
			// dW_b = dOut_b · patchesᵀ, into this sample's partial.
			tensor.GemmPanelB(c.dwBufs[b], tensor.PackA(gb, c.OutC, oHW, ck2, false), cols, false)
		}
		if dx != nil {
			// dCols = weightᵀ · dOut_b, row-major over the patch buffer.
			tensor.GemmPackedA(cols, wtp, gb, false, false)
			scatterInto(dx.Data[b*inC*h*w:(b+1)*inC*h*w], xp, cols, g, inC, h, w, c.Pad)
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC:    c.InC,
		OutC:   c.OutC,
		Kernel: c.Kernel,
		Stride: c.Stride,
		Pad:    c.Pad,
		weight: c.weight.Clone(),
		bias:   c.bias.Clone(),
		gradW:  tensor.New(c.OutC, c.InC, c.Kernel, c.Kernel),
		gradB:  tensor.New(c.OutC),
	}
}

// ConvTranspose2D is a 2-D transposed convolution (fractionally strided
// convolution) over batched inputs [batch, inC, H, W], producing
// [batch, outC, outH, outW] with outH = (H−1)*stride − 2*pad + kernel.
//
// The DFA-G generator follows the WGAN recipe cited by the paper: two
// transposed convolutions upsample a latent noise block into an image.
//
// Like Conv2D, both passes are GEMM-lowered: the forward pass scatters weightᵀ·x onto a padded buffer
// whose interior holds the bias (Conv2D's input-gradient scatter), the
// backward pass pads the output gradient and gathers its patches — one
// padded copy per sample, its transposed patch matrix for the weight
// gradient and its patch matrix for the input gradient.
type ConvTranspose2D struct {
	InC, OutC   int
	Kernel      int
	Stride, Pad int

	weight *tensor.Tensor // [inC, outC, k, k]
	bias   *tensor.Tensor // [outC]
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	lastInput *tensor.Tensor
	geom      patchGeom // of the output gradient

	scratch  *tensor.Pool
	colsBufs [][]float64
	xpBufs   [][]float64
	dwBufs   [][]float64
}

var _ Layer = (*ConvTranspose2D)(nil)

// NewConvTranspose2D creates a transposed-convolution layer with He-uniform
// initialized weights.
func NewConvTranspose2D(rng *rand.Rand, inC, outC, kernel, stride, pad int) *ConvTranspose2D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid convT config kernel=%d stride=%d pad=%d", kernel, stride, pad))
	}
	c := &ConvTranspose2D{
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
		weight: tensor.New(inC, outC, kernel, kernel),
		bias:   tensor.New(outC),
		gradW:  tensor.New(inC, outC, kernel, kernel),
		gradB:  tensor.New(outC),
	}
	fanIn := float64(inC * kernel * kernel)
	limit := math.Sqrt(6.0 / fanIn)
	c.weight.FillUniform(rng, -limit, limit)
	return c
}

// outSize returns the spatial output size for a given input size.
func (c *ConvTranspose2D) outSize(in int) int {
	return (in-1)*c.Stride - 2*c.Pad + c.Kernel
}

func (c *ConvTranspose2D) setScratch(p *tensor.Pool) { c.scratch = p }

// Forward implements Layer.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
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
	hw := h * w
	ock2 := c.OutC * c.Kernel * c.Kernel
	out := c.scratch.GetTensorUninit(batch, c.OutC, outH, outW) // scatterInto writes every element
	g := c.geom.at(c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	c.colsBufs, c.xpBufs, c.dwBufs = stageConvBufs(c.scratch, c.colsBufs, c.xpBufs, c.dwBufs, batch, ock2*hw, g.xpLen, 0)
	wtp := tensor.PackA(c.weight.Data, ock2, inC, hw, true)
	tensor.ParallelChunks(batch, 1, len(c.colsBufs), convTPass{c: c, x: x, y: out, w: wtp}, convTPass.forwardChunk)
	return out
}

// forwardChunk runs the GEMM-lowered forward scatter for samples [lo, hi)
// with weightᵀ: each output pixel is its bias plus its taps in
// ascending (ki, kj) order.
func (pass convTPass) forwardChunk(lo, hi, ch int) {
	c, x, out, wtp := pass.c, pass.x, pass.y, pass.w
	inC, hw := x.Shape[1], x.Shape[2]*x.Shape[3]
	outH, outW := out.Shape[2], out.Shape[3]
	oHW := outH * outW
	hp, wp := outH+2*c.Pad, outW+2*c.Pad
	g, cols, xp := &c.geom, c.colsBufs[ch], c.xpBufs[ch]
	for b := lo; b < hi; b++ {
		// cols = weightᵀ · x_b over [inC, outC·k²] × [inC, hw].
		tensor.GemmPackedA(cols, wtp, x.Data[b*inC*hw:(b+1)*inC*hw], false, false)
		// The padded buffer's interior starts at the bias; the scatter adds
		// the taps onto it and crops it into the output.
		for oc := 0; oc < c.OutC; oc++ {
			bv := c.bias.Data[oc]
			for i := 0; i < outH; i++ {
				row := xp[(oc*hp+c.Pad+i)*wp+c.Pad:][:outW]
				for j := range row {
					row[j] = bv
				}
			}
		}
		scatterInto(out.Data[b*c.OutC*oHW:(b+1)*c.OutC*oHW], xp, cols, g, c.OutC, outH, outW, c.Pad)
	}
}

// Backward implements Layer.
func (c *ConvTranspose2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true, true)
}

// backward implements halfBackward. Both halves expand the padded output
// gradient: the parameter half multiplies the cached input with its
// transposed patch matrix, the input half the weights with its patch matrix.
func (c *ConvTranspose2D) backward(grad *tensor.Tensor, params, input bool) *tensor.Tensor {
	x := c.lastInput
	batch, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	hw := h * w
	oHW := outH * outW
	ock2 := c.OutC * c.Kernel * c.Kernel
	var dx *tensor.Tensor
	var wp tensor.PackedA // the left operand of the input half
	if input {
		dx = c.scratch.GetTensorUninit(batch, inC, h, w) // a non-accumulating GEMM per sample writes it
		wp = tensor.PackA(c.weight.Data, inC, ock2, hw, false)
	}
	g := c.geom.at(c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad) // its positions are the input's h×w
	colsSize, dwSize := tensor.PanelBLen(ock2, hw), 0
	if params {
		colsSize = max(colsSize, tensor.PanelBLen(hw, ock2))
		dwSize = inC * ock2
	}
	c.colsBufs, c.xpBufs, c.dwBufs = stageConvBufs(c.scratch, c.colsBufs, c.xpBufs, c.dwBufs, batch, colsSize, g.xpLen, dwSize)
	tensor.ParallelChunks(batch, 1, len(c.colsBufs), convTPass{c, x, grad, dx, wp}, convTPass.backwardChunk)
	if params {
		reduceConvPartials(c.gradW.Data, c.gradB.Data, c.dwBufs, grad.Data, batch, c.OutC, oHW)
	}
	return dx
}

// backwardChunk runs the GEMM-lowered backward pass for samples [lo, hi):
// the padded copy of the output gradient, then the sample's weight-gradient
// partial when partials were staged and the input gradient when dx was.
// dCols is the patch matrix of dOut_b with the layer's geometry reversed:
// output positions of the scatter are the input positions here.
func (pass convTPass) backwardChunk(lo, hi, ch int) {
	c, x, grad, dx, wp := pass.c, pass.x, pass.y, pass.dx, pass.w
	inC, hw := x.Shape[1], x.Shape[2]*x.Shape[3]
	outH, outW := grad.Shape[2], grad.Shape[3]
	oHW := outH * outW
	ock2 := c.OutC * c.Kernel * c.Kernel
	g, cols, xp := &c.geom, c.colsBufs[ch], c.xpBufs[ch]
	for b := lo; b < hi; b++ {
		padInto(xp, grad.Data[b*c.OutC*oHW:(b+1)*c.OutC*oHW], c.OutC, outH, outW, c.Pad)
		if len(c.dwBufs) > 0 {
			// dW_b = x_b · dColsᵀ.
			g.moves.GatherPanels(cols, xp, true)
			tensor.GemmPanelB(c.dwBufs[b], tensor.PackA(x.Data[b*inC*hw:(b+1)*inC*hw], inC, hw, ock2, false), cols, false)
		}
		if dx != nil {
			// dx_b = weight · dCols.
			g.moves.GatherPanels(cols, xp, false)
			tensor.GemmPanelB(dx.Data[b*inC*hw:(b+1)*inC*hw], wp, cols, false)
		}
	}
}

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Grads implements Layer.
func (c *ConvTranspose2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// Clone implements Layer.
func (c *ConvTranspose2D) Clone() Layer {
	return &ConvTranspose2D{
		InC:    c.InC,
		OutC:   c.OutC,
		Kernel: c.Kernel,
		Stride: c.Stride,
		Pad:    c.Pad,
		weight: c.weight.Clone(),
		bias:   c.bias.Clone(),
		gradW:  tensor.New(c.InC, c.OutC, c.Kernel, c.Kernel),
		gradB:  tensor.New(c.OutC),
	}
}
