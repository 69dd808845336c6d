package nn

import "repro/internal/tensor"

// SGD is a stochastic-gradient-descent optimizer with optional classical
// momentum. The zero value is unusable; use NewSGD.
type SGD struct {
	// LR is the learning rate η of Eq. 1.
	LR float64
	// Momentum is the classical momentum coefficient (0 disables it).
	Momentum float64

	velocity []*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one update to the network parameters from its accumulated
// gradients and then zeroes the gradients.
func (o *SGD) Step(n *Network) {
	params := n.Params()
	grads := n.Grads()
	if o.Momentum > 0 && o.velocity == nil {
		o.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			o.velocity[i] = tensor.New(p.Shape...)
		}
	}
	for i, p := range params {
		g := grads[i]
		if o.Momentum > 0 {
			v := o.velocity[i]
			for j := range p.Data {
				v.Data[j] = o.Momentum*v.Data[j] + g.Data[j]
				p.Data[j] -= o.LR * v.Data[j]
			}
		} else {
			for j := range p.Data {
				p.Data[j] -= o.LR * g.Data[j]
			}
		}
	}
	n.ZeroGrads()
}

// TrainBatch performs one optimization step of the network on a batch with
// hard labels and returns the batch loss before the step. This is the local
// training primitive used by benign clients (Eq. 1).
//
// When the network has a scratch arena attached, the arena is reset at
// entry and the whole step runs without steady-state heap allocation; x
// must therefore not itself live in the network's arena.
func TrainBatch(n *Network, opt *SGD, x *tensor.Tensor, labels []int) float64 {
	n.ResetScratch()
	logits := n.Forward(x, true)
	loss, grad := crossEntropyPool(n.Scratch(), logits, labels)
	n.BackwardParams(grad)
	opt.Step(n)
	return loss
}
