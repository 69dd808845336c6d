package nn

import (
	"math"

	"repro/internal/tensor"
)

// keepMask returns all ones when the float64 with the given bit pattern is
// greater than zero and 0 otherwise. Subtracting one sends ±0 to the top of
// the unsigned range, so one compare rejects ±0, negatives and NaNs
// together; an integer select compiles to a conditional move, where
// comparing the floats would branch on data that is positive half the time.
func keepMask(bits uint64) uint64 {
	var m uint64
	if bits-1 < 0x7FF0000000000000 {
		m = ^uint64(0)
	}
	return m
}

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	lastInput *tensor.Tensor
	scratch   *tensor.Pool
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func (r *ReLU) setScratch(p *tensor.Pool) { r.scratch = p }

// Forward implements Layer. Everything that is not greater than zero —
// negatives, −0 and NaN — becomes +0.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.lastInput = x
	}
	out := r.scratch.GetTensorUninit(x.Shape...)
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b & keepMask(b))
	}
	return out
}

// Backward implements Layer: the gradient passes where the cached input
// was greater than zero and is +0 elsewhere.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.scratch.GetTensorUninit(grad.Shape...)
	dst := out.Data[:len(grad.Data)]
	in := r.lastInput.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		dst[i] = math.Float64frombits(math.Float64bits(g) & keepMask(math.Float64bits(in[i])))
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return NewReLU() }

// LeakyReLU is the leaky rectified-linear activation used by the generator
// network: x for x > 0, alpha*x otherwise.
type LeakyReLU struct {
	Alpha float64

	lastInput *tensor.Tensor
	scratch   *tensor.Pool
}

var _ Layer = (*LeakyReLU)(nil)

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

func (r *LeakyReLU) setScratch(p *tensor.Pool) { r.scratch = p }

// leak writes v[i] where in[i] > 0 and alpha*v[i] elsewhere: the forward
// pass with v = in, the backward pass with v = the output gradient.
func leak(dst, v, in []float64, alpha float64) {
	dst, in = dst[:len(v)], in[:len(v)]
	for i, x := range v {
		pass, scaled := math.Float64bits(x), math.Float64bits(alpha*x)
		dst[i] = math.Float64frombits(scaled ^ (scaled^pass)&keepMask(math.Float64bits(in[i])))
	}
}

// Forward implements Layer.
func (r *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.lastInput = x
	}
	out := r.scratch.GetTensorUninit(x.Shape...)
	leak(out.Data, x.Data, x.Data, r.Alpha)
	return out
}

// Backward implements Layer.
func (r *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.scratch.GetTensorUninit(grad.Shape...)
	leak(out.Data, grad.Data, r.lastInput.Data, r.Alpha)
	return out
}

// Params implements Layer.
func (r *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *LeakyReLU) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (r *LeakyReLU) Clone() Layer { return NewLeakyReLU(r.Alpha) }

// Tanh is the hyperbolic-tangent activation, used as the generator's output
// nonlinearity so synthesized pixels stay in [−1, 1] like normalized images.
type Tanh struct {
	lastOutput *tensor.Tensor
	scratch    *tensor.Pool
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

func (a *Tanh) setScratch(p *tensor.Pool) { a.scratch = p }

// Forward implements Layer.
func (a *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := a.scratch.GetTensorUninit(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	if train {
		//lint:allow poolescape read back by the Backward of the same arena cycle, like the lastInput of the other layers
		a.lastOutput = out
	}
	return out
}

// Backward implements Layer.
func (a *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := a.scratch.GetTensorUninit(grad.Shape...)
	for i, g := range grad.Data {
		y := a.lastOutput.Data[i]
		out.Data[i] = g * (1 - y*y)
	}
	return out
}

// Params implements Layer.
func (a *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (a *Tanh) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (a *Tanh) Clone() Layer { return NewTanh() }

// Flatten reshapes [batch, ...] inputs into [batch, features] and restores
// the original shape on the backward pass.
type Flatten struct {
	lastShape []int
	scratch   *tensor.Pool
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (f *Flatten) setScratch(p *tensor.Pool) { f.scratch = p }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.lastShape = append(f.lastShape[:0], x.Shape...)
	}
	batch := x.Shape[0]
	return f.scratch.GetView(x.Data, batch, x.Len()/batch)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.scratch.GetView(grad.Data, f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return NewFlatten() }
