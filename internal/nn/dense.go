package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b over batched
// rank-2 inputs of shape [batch, in].
type Dense struct {
	In, Out int

	weight *tensor.Tensor // [in, out]
	bias   *tensor.Tensor // [out]
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	lastInput *tensor.Tensor
	scratch   *tensor.Pool
}

var _ Layer = (*Dense)(nil)

// NewDense creates a dense layer with He-uniform initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		weight: tensor.New(in, out),
		bias:   tensor.New(out),
		gradW:  tensor.New(in, out),
		gradB:  tensor.New(out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	d.weight.FillUniform(rng, -limit, limit)
	return d
}

func (d *Dense) setScratch(p *tensor.Pool) { d.scratch = p }

// checkInput validates the shape contract the raw GEMM calls no longer
// enforce: rank-2 input whose feature width matches the layer.
func (d *Dense) checkInput(x *tensor.Tensor) {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: dense input shape %v, want [batch %d]", x.Shape, d.In))
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.checkInput(x)
	if train {
		d.lastInput = x
	}
	batch := x.Shape[0]
	out := d.scratch.GetTensorUninit(batch, d.Out)
	tensor.GemmNN(out.Data, x.Data, d.weight.Data, batch, d.In, d.Out, false)
	for b := 0; b < batch; b++ {
		row := out.Data[b*d.Out : (b+1)*d.Out]
		for j := 0; j < d.Out; j++ {
			row[j] += d.bias.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return d.backward(grad, true, true)
}

// backward implements halfBackward: xᵀ·grad and the column sums of grad
// for the parameters, grad·Wᵀ for the input.
func (d *Dense) backward(grad *tensor.Tensor, params, input bool) *tensor.Tensor {
	if len(grad.Shape) != 2 || grad.Shape[1] != d.Out {
		panic(fmt.Sprintf("nn: dense gradient shape %v, want [batch %d]", grad.Shape, d.Out))
	}
	batch := grad.Shape[0]
	if params {
		// gradW += xᵀ·grad, accumulated element-wise onto the existing values.
		tensor.GemmTN(d.gradW.Data, d.lastInput.Data, grad.Data, d.In, batch, d.Out, true)
		for b := 0; b < batch; b++ {
			row := grad.Data[b*d.Out : (b+1)*d.Out]
			for j := 0; j < d.Out; j++ {
				d.gradB.Data[j] += row[j]
			}
		}
	}
	if !input {
		return nil
	}
	dx := d.scratch.GetTensorUninit(batch, d.In)
	tensor.GemmNT(dx.Data, grad.Data, d.weight.Data, batch, d.Out, d.In, false)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.weight, d.bias} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gradW, d.gradB} }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		In:     d.In,
		Out:    d.Out,
		weight: d.weight.Clone(),
		bias:   d.bias.Clone(),
		gradW:  tensor.New(d.In, d.Out),
		gradB:  tensor.New(d.Out),
	}
}
