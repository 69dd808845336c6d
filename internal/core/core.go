// Package core implements the paper's primary contributions: the data-free
// untargeted attacks DFA-R and DFA-G (Section III), their distance-based
// stealth regularization L_d (Eq. 3), the non-trained ("static") ablation
// variants of Table III, the real-data attack variant of Fig. 8, and the
// REFD reference-dataset defense with its D-score (Section V).
//
// Both DFA variants follow the two-step framework of Section III-B:
//
//  1. Malicious image generation — synthesize a set S of |S| images using
//     only the received global model w(t): DFA-R optimizes a convolutional
//     "filter layer" per image so the global model's prediction approaches
//     the uniform distribution Y_D; DFA-G trains a persistent generator
//     network so its outputs are confidently *not* classified as a fixed
//     random class Ỹ.
//  2. Adversarial classifier training — train a local model from w(t) on
//     (S, Ỹ) with the regularized loss F(w, S) + λ·L_d, where
//     L_d = ‖w − w(t)‖² − ‖w(t) − w(t−1)‖² keeps the update's deviation in
//     line with the global model's own recent movement.
//
// Neither attack reads benign updates or real data, matching the paper's
// threat model (Section III-A).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DFAConfig collects the hyper-parameters shared by the DFA attack family.
type DFAConfig struct {
	// Classes is L, the number of task classes.
	Classes int
	// ImgC and ImgSize describe the task's image shape (channels, side).
	ImgC, ImgSize int
	// SampleCount is |S|, the synthetic set size per round (paper: 50).
	SampleCount int
	// SynthesisEpochs is E, the per-round optimization epochs for the
	// filter layer / generator (paper: 5 for Fashion-MNIST, 10 otherwise).
	SynthesisEpochs int
	// ClassifierEpochs is the adversarial classifier's local epoch count
	// (matches benign clients' single epoch by default).
	ClassifierEpochs int
	// SynthesisLR is the learning rate of the synthesis optimization.
	SynthesisLR float64
	// ClassifierLR is the adversarial classifier's learning rate.
	ClassifierLR float64
	// BatchSize is the classifier-training minibatch size.
	BatchSize int
	// RegLambda weighs the distance-based regularization L_d; 0 disables it
	// (the Table IV ablation).
	RegLambda float64
	// Trained selects the full attack; false freezes the randomly
	// initialized synthesizer (the Table III "Static" ablation).
	Trained bool
	// PerturbStd adds small per-attacker noise to evade Sybil defenses
	// (Section III-A); 0 submits identical updates.
	PerturbStd float64
}

// Validate reports configuration errors and fills defaults.
func (c *DFAConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("core: Classes %d must be >= 2", c.Classes)
	case c.ImgC <= 0 || c.ImgSize <= 0:
		return fmt.Errorf("core: invalid image shape %dx%dx%d", c.ImgC, c.ImgSize, c.ImgSize)
	case c.SampleCount <= 0:
		return errors.New("core: SampleCount must be positive")
	case c.SynthesisEpochs <= 0:
		return errors.New("core: SynthesisEpochs must be positive")
	}
	if c.ClassifierEpochs <= 0 {
		c.ClassifierEpochs = 1
	}
	if c.SynthesisLR <= 0 {
		c.SynthesisLR = 0.01
	}
	if c.ClassifierLR <= 0 {
		c.ClassifierLR = 0.05
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return nil
}

// classifier is the storage an attack keeps across rounds for step 2: the
// adversarial classifier's activation arena and the minibatch its training
// set is gathered into.
type classifier struct {
	arena *tensor.Pool
	xb    *tensor.Tensor
	yb    []int
}

func newClassifier() *classifier { return &classifier{arena: tensor.NewPool()} }

// train performs step 2 of the framework: train a classifier from the
// global weights on the synthetic set with the distance-regularized loss,
// and return its weight vector. The classifier is built anew each craft —
// its construction draws from the attack stream — but its activations and
// minibatches live in c's storage.
func (c *classifier) train(ctx *fl.AttackContext, cfg DFAConfig, images *tensor.Tensor, labels []int) ([]float64, error) {
	model := ctx.NewModel(ctx.Rng)
	model.SetScratch(c.arena)
	if err := model.SetWeightVector(ctx.Global); err != nil {
		return nil, err
	}
	opt := nn.NewSGD(cfg.ClassifierLR, 0)
	n := images.Shape[0]
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < cfg.ClassifierEpochs; e++ {
		ctx.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			c.gather(images, labels, order[start:end])
			model.ResetScratch()
			logits := model.Forward(c.xb, true)
			_, grad := nn.CrossEntropy(logits, c.yb)
			model.BackwardParams(grad)
			if cfg.RegLambda > 0 {
				addDistanceGrad(model, ctx.Global, 2*cfg.RegLambda)
			}
			opt.Step(model)
		}
	}
	return model.WeightVector(), nil
}

// gather assembles the given sample indices of a [N, C, H, W] tensor and
// their labels into the minibatch, growing its storage only for a larger
// batch than it has held.
func (c *classifier) gather(images *tensor.Tensor, labels []int, idx []int) {
	per := images.Len() / images.Shape[0]
	if c.xb == nil || cap(c.xb.Data) < len(idx)*per {
		c.xb = tensor.New(len(idx), images.Shape[1], images.Shape[2], images.Shape[3])
	} else {
		c.xb.Data, c.xb.Shape[0] = c.xb.Data[:len(idx)*per], len(idx)
	}
	c.yb = slices.Grow(c.yb[:0], len(idx))[:len(idx)]
	for i, j := range idx {
		copy(c.xb.Data[i*per:(i+1)*per], images.Data[j*per:(j+1)*per])
		c.yb[i] = labels[j]
	}
}

// addDistanceGrad adds ∂(λ·L_d)/∂w = scale·(w − w(t)), scale = 2λ, to the
// model's gradient tensors in place; the second term of Eq. 3 is constant
// in w and contributes no gradient. global is walked by offset in
// parameter order, the layout of WeightVector.
func addDistanceGrad(model *nn.Network, global []float64, scale float64) {
	grads := model.Grads()
	off := 0
	for i, p := range model.Params() {
		g := grads[i].Data
		for j, w := range p.Data {
			// The conversion rounds the product before the add, so no
			// platform fuses the two into one differently rounded FMA.
			g[j] += float64((w - global[off+j]) * scale)
		}
		off += len(p.Data)
	}
}

// newFrozen builds a replica of the task model for forward and
// input-gradient passes only, drawing its activations from arena. Its owner
// loads the round's global weights with SetWeightVector and never steps
// it, so its Grads stay zero; the initial weights are never read, hence
// the fixed seed that leaves ctx.Rng alone.
func newFrozen(ctx *fl.AttackContext, arena *tensor.Pool) *nn.Network {
	m := ctx.NewModel(rand.New(rand.NewSource(1)))
	m.SetScratch(arena)
	return m
}
