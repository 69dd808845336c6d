// Package nn implements the neural-network training stack the paper's
// experiments run on: layer-wise backpropagation over the tensor substrate,
// convolutional and transposed-convolutional layers (the latter for the
// DFA-G generator), dense layers, activations, softmax cross-entropy with
// hard and soft targets (the latter for DFA-R's uniform-confidence
// objective), and plain SGD.
//
// The federated-learning layers of the reproduction treat a model as its
// flat weight vector (see Eq. 1–2 of the paper); WeightVector and
// SetWeightVector convert between the two representations.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward stores whatever
// activations Backward needs, so a Layer instance must not be shared between
// concurrently training networks; Clone provides an independent copy.
type Layer interface {
	// Forward computes the layer output for a batch. When train is false,
	// layers may skip caching activations needed only by Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the layer input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned 1:1 with Params.
	Grads() []*tensor.Tensor
	// Clone returns an independent copy with identical configuration and
	// parameter values but no shared state.
	Clone() Layer
}

// Network is an ordered sequence of layers trained end-to-end.
type Network struct {
	layers []Layer

	// scratch, when set, is the arena the layers allocate activations and
	// gradient temporaries from; see SetScratch.
	scratch *tensor.Pool

	// params and grads cache the flattened layer parameter/gradient slices
	// so the per-step hot paths (optimizer, weight-vector conversion) do not
	// allocate.
	params, grads []*tensor.Tensor
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: layers}
}

// scratchUser is implemented by layers that can allocate their activations
// and temporaries from a scratch arena instead of the heap.
type scratchUser interface {
	setScratch(p *tensor.Pool)
}

// SetScratch attaches a scratch arena to the network: every pool-aware
// layer allocates its activations and gradient temporaries from p instead
// of the heap. The arena is owned by whoever drives the network (a training
// client, an evaluator worker): it must be Reset between training steps —
// TrainBatch does this — and anything produced by Forward/Backward is only
// valid until that Reset. Parameters, gradients and weight vectors never
// live in the arena. Passing nil detaches the arena.
func (n *Network) SetScratch(p *tensor.Pool) {
	n.scratch = p
	for _, l := range n.layers {
		if su, ok := l.(scratchUser); ok {
			su.setScratch(p)
		}
	}
}

// Scratch returns the attached scratch arena (nil when none).
func (n *Network) Scratch() *tensor.Pool { return n.scratch }

// ResetScratch recycles the attached scratch arena, invalidating every
// activation tensor produced since the previous reset. No-op without one.
func (n *Network) ResetScratch() { n.scratch.Reset() }

// Forward runs the batch through every layer and returns the final output
// (for classifiers: the logits, shape [batch, classes]).
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out, train)
	}
	return out
}

// BackwardInput returns the gradient with respect to the network input and
// computes nothing else: a convolution does not expand its kept padded
// input into panels, no layer forms weight or bias gradients, and Grads are
// left exactly as they were. It is the backward
// pass of a frozen model — DFA synthesis differentiates the global model
// with respect to the synthetic image and never steps it.
func (n *Network) BackwardInput(grad *tensor.Tensor) *tensor.Tensor {
	return n.backward(grad, false, true)
}

// BackwardParams accumulates parameter gradients into each layer's Grads
// tensors and skips the input gradient of the first layer, which training
// never reads (the batch is data, not a parameter).
func (n *Network) BackwardParams(grad *tensor.Tensor) {
	n.backward(grad, true, false)
}

// halfBackward is implemented by the parametrised layers, whose backward
// pass has two separable halves: the parameter gradients (params) and the
// input gradient (input). With input false the result is nil.
type halfBackward interface {
	backward(grad *tensor.Tensor, params, input bool) *tensor.Tensor
}

// backward walks the layers in reverse. Every layer but the first must
// produce its input gradient, since the layer below consumes it; the
// parameter-free layers have only that half, so their Backward serves both
// entry points.
func (n *Network) backward(grad *tensor.Tensor, params, input bool) *tensor.Tensor {
	g := grad
	for i := len(n.layers) - 1; i >= 0; i-- {
		if l, ok := n.layers[i].(halfBackward); ok {
			g = l.backward(g, params, input || i > 0)
		} else {
			g = n.layers[i].Backward(g)
		}
	}
	return g
}

// Params returns all trainable parameter tensors in layer order. The
// returned slice is cached; callers must not mutate it.
func (n *Network) Params() []*tensor.Tensor {
	if n.params == nil {
		for _, l := range n.layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// Grads returns all gradient tensors aligned with Params. The returned
// slice is cached; callers must not mutate it.
func (n *Network) Grads() []*tensor.Tensor {
	if n.grads == nil {
		for _, l := range n.layers {
			n.grads = append(n.grads, l.Grads()...)
		}
	}
	return n.grads
}

// ZeroGrads clears all accumulated parameter gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Len()
	}
	return total
}

// WeightVector flattens all parameters into a fresh []float64 — the update
// representation exchanged with the federated server.
func (n *Network) WeightVector() []float64 {
	return n.AppendWeights(make([]float64, 0, n.NumParams()))
}

// AppendWeights appends the flattened parameters to dst and returns the
// extended slice: WeightVector into storage the caller keeps.
func (n *Network) AppendWeights(dst []float64) []float64 {
	for _, p := range n.Params() {
		dst = append(dst, p.Data...)
	}
	return dst
}

// SetWeightVector loads a flat weight vector produced by WeightVector back
// into the network parameters.
func (n *Network) SetWeightVector(v []float64) error {
	if len(v) != n.NumParams() {
		return fmt.Errorf("nn: weight vector length %d does not match %d parameters", len(v), n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Data, v[off:off+p.Len()])
		off += p.Len()
	}
	return nil
}

// Clone returns an independent deep copy of the network: same architecture
// and weights, no shared tensors or cached activations.
func (n *Network) Clone() *Network {
	c := &Network{layers: make([]Layer, len(n.layers))}
	for i, l := range n.layers {
		c.layers[i] = l.Clone()
	}
	return c
}
