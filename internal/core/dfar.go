package core

import (
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DFAR is the filter-layer variant of the data-free attack (Section III-C).
// For every synthetic sample it draws a static random image A, passes it
// through a trainable convolutional filter layer to obtain image B, and
// optimizes the filter so the frozen global model's prediction for B
// approaches the uniform distribution Y_D = [1/L, …, 1/L]. The |S| resulting
// images, paired with a per-round random class Ỹ, train the adversarial
// classifier with the distance-regularized loss.
type DFAR struct {
	cfg       DFAConfig
	lossTrace [][]float64

	// frozen holds one replica of the global model, with its own arena, per
	// synthesis worker. The replicas persist across rounds; each Craft only
	// reloads their weights.
	frozen []*nn.Network
	// clf is the adversarial classifier's storage.
	clf *classifier
}

var _ fl.Attack = (*DFAR)(nil)

// NewDFAR constructs the attack; the config is validated and defaults are
// filled in.
func NewDFAR(cfg DFAConfig) (*DFAR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DFAR{cfg: cfg, clf: newClassifier()}, nil
}

// Name implements fl.Attack.
func (a *DFAR) Name() string {
	if !a.cfg.Trained {
		return "dfa-r-static"
	}
	return "dfa-r"
}

// LossTrace returns the per-round, per-epoch synthesis losses (the
// cross-entropy against Y_D averaged over S), the series plotted in Fig. 7.
func (a *DFAR) LossTrace() [][]float64 {
	out := make([][]float64, len(a.lossTrace))
	for i, r := range a.lossTrace {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Craft implements fl.Attack.
func (a *DFAR) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	cfg := a.cfg
	images, err := a.synthesizeSet(ctx)
	if err != nil {
		return nil, err
	}
	// Step 2: pair S with a per-round random class Ỹ and train the
	// adversarial classifier.
	yTilde := ctx.Rng.Intn(cfg.Classes)
	labels := make([]int, cfg.SampleCount)
	for i := range labels {
		labels[i] = yTilde
	}
	w, err := a.clf.train(ctx, cfg, images, labels)
	if err != nil {
		return nil, err
	}
	return fl.Replicate(ctx, w, cfg.PerturbStd), nil
}

// synthesizeSet performs step 1: it returns the round's synthetic set S
// and, for the trained attack, appends the round's losses to the trace.
func (a *DFAR) synthesizeSet(ctx *fl.AttackContext) (*tensor.Tensor, error) {
	cfg := a.cfg
	per := cfg.ImgC * cfg.ImgSize * cfg.ImgSize

	// Every sample's static random dummy image A and filter layer come
	// from ctx.Rng here, dummy then filter, sample by sample; the
	// optimizations below draw nothing, so they can run in any order.
	dummies := make([]*tensor.Tensor, cfg.SampleCount)
	filters := make([]*nn.Network, cfg.SampleCount)
	for s := range dummies {
		dummies[s] = tensor.New(1, cfg.ImgC, cfg.ImgSize, cfg.ImgSize)
		dummies[s].FillUniform(ctx.Rng, -1, 1)
		filters[s] = nn.NewNetwork(nn.NewConv2D(ctx.Rng, cfg.ImgC, cfg.ImgC, 3, 1, 1))
	}

	workers := tensor.Workers()
	if workers > cfg.SampleCount {
		workers = cfg.SampleCount
	}
	for len(a.frozen) < workers {
		a.frozen = append(a.frozen, newFrozen(ctx, tensor.NewPool()))
	}
	for _, m := range a.frozen[:workers] {
		if err := m.SetWeightVector(ctx.Global); err != nil {
			return nil, err
		}
	}

	// The |S| optimizations are independent and a few milliseconds each,
	// so they fan out here, once per craft: worker w optimizes sample s
	// with its own replica and arena and writes image s and its losses
	// into slot s.
	images := tensor.New(cfg.SampleCount, cfg.ImgC, cfg.ImgSize, cfg.ImgSize)
	losses := make([]float64, cfg.SampleCount*cfg.SynthesisEpochs)
	uniform := nn.UniformTarget(cfg.Classes)
	tensor.Drain(workers, cfg.SampleCount, func(w, s int) {
		a.synthesize(a.frozen[w], filters[s], dummies[s], uniform,
			images.Data[s*per:(s+1)*per], losses[s*cfg.SynthesisEpochs:(s+1)*cfg.SynthesisEpochs])
	})
	if cfg.Trained {
		// Folded in sample order, so the trace does not depend on which
		// worker ran which sample.
		epochLoss := make([]float64, cfg.SynthesisEpochs)
		for s := 0; s < cfg.SampleCount; s++ {
			for e := range epochLoss {
				epochLoss[e] += losses[s*cfg.SynthesisEpochs+e]
			}
		}
		for e := range epochLoss {
			epochLoss[e] /= float64(cfg.SampleCount)
		}
		a.lossTrace = append(a.lossTrace, epochLoss)
	}
	return images, nil
}

// synthesize optimizes one sample's filter layer against the frozen global
// model — the filter is the only trainable component; Section III-C keeps
// A and the global model fixed to minimize the trainable parameter count —
// and writes the resulting image B and the per-epoch losses. The filter
// net borrows the frozen model's arena, recycled at every step.
func (a *DFAR) synthesize(frozen, fnet *nn.Network, dummy *tensor.Tensor, uniform, image, losses []float64) {
	pool := frozen.Scratch()
	fnet.SetScratch(pool)
	if a.cfg.Trained {
		opt := nn.NewSGD(a.cfg.SynthesisLR, 0.9)
		for e := range losses {
			pool.Reset()
			b := fnet.Forward(dummy, true)
			logits := frozen.Forward(b, true)
			loss, grad := nn.CrossEntropySoftPool(pool, logits, uniform)
			fnet.BackwardParams(frozen.BackwardInput(grad))
			opt.Step(fnet)
			losses[e] = loss
		}
	}
	pool.Reset()
	copy(image, fnet.Forward(dummy, false).Data)
}
