package core

import (
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DFAG is the generator variant of the data-free attack (Section III-D). A
// lightweight transposed-convolution generator G, trained interactively
// against the frozen global model across rounds, maps a fixed latent noise
// block Z to synthetic images that are confidently *not* of the fixed random
// class Ỹ (by maximizing the cross-entropy of the global model's prediction
// against Ỹ). The images, labelled Ỹ, then train the adversarial classifier
// — implicitly combining synthesis with label flipping.
type DFAG struct {
	cfg DFAConfig

	// Persistent adversary state: the generator and its fixed latent input
	// survive across rounds ("we use the same random seed over multiple
	// rounds so that the trained generator is able to consistently produce
	// synthetic data different from class Ỹ").
	gen         *nn.Network
	genOpt      *nn.SGD
	frozen      *nn.Network // replica of the global model, reloaded each round
	clf         *classifier // the adversarial classifier's storage
	latent      *tensor.Tensor
	targetClass int

	lossTrace [][]float64
}

var _ fl.Attack = (*DFAG)(nil)

// NewDFAG constructs the attack; the config is validated and defaults are
// filled in.
func NewDFAG(cfg DFAConfig) (*DFAG, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DFAG{cfg: cfg, clf: newClassifier(), targetClass: -1}, nil
}

// Name implements fl.Attack.
func (a *DFAG) Name() string {
	if !a.cfg.Trained {
		return "dfa-g-static"
	}
	return "dfa-g"
}

// LossTrace returns the per-round, per-epoch generator objective (the
// cross-entropy against Ỹ, which DFA-G *maximizes*), the series plotted in
// Fig. 7.
func (a *DFAG) LossTrace() [][]float64 {
	out := make([][]float64, len(a.lossTrace))
	for i, r := range a.lossTrace {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func (a *DFAG) ensureState(ctx *fl.AttackContext) {
	if a.gen != nil {
		return
	}
	a.gen = nn.NewGenerator(ctx.Rng, a.cfg.ImgC, a.cfg.ImgSize)
	a.gen.SetScratch(tensor.NewPool())
	a.genOpt = nn.NewSGD(a.cfg.SynthesisLR, 0.9)
	// The frozen model shares the generator's arena: both run in this
	// goroutine and their activations die together at each epoch reset.
	a.frozen = newFrozen(ctx, a.gen.Scratch())
	c, h, w := nn.GeneratorLatentSize(a.cfg.ImgSize)
	a.latent = tensor.New(a.cfg.SampleCount, c, h, w)
	a.latent.FillNormal(ctx.Rng, 0, 1)
	a.targetClass = ctx.Rng.Intn(a.cfg.Classes)
}

// Craft implements fl.Attack.
func (a *DFAG) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	cfg := a.cfg
	a.ensureState(ctx)
	if err := a.frozen.SetWeightVector(ctx.Global); err != nil {
		return nil, err
	}
	labels := make([]int, cfg.SampleCount)
	for i := range labels {
		labels[i] = a.targetClass
	}

	if cfg.Trained {
		epochLoss := make([]float64, cfg.SynthesisEpochs)
		for e := 0; e < cfg.SynthesisEpochs; e++ {
			a.gen.ResetScratch()
			s := a.gen.Forward(a.latent, true)
			logits := a.frozen.Forward(s, true)
			loss, grad := nn.CrossEntropy(logits, labels)
			// maxθ F(w(t), (S, Ỹ)): gradient *ascent* on the cross-entropy,
			// steering generated images away from class Ỹ.
			grad.ScaleInPlace(-1)
			a.gen.BackwardParams(a.frozen.BackwardInput(grad))
			a.genOpt.Step(a.gen)
			epochLoss[e] = loss
		}
		a.lossTrace = append(a.lossTrace, epochLoss)
	}

	a.gen.ResetScratch()
	images := a.gen.Forward(a.latent, false)
	w, err := a.clf.train(ctx, cfg, images, labels)
	if err != nil {
		return nil, err
	}
	return replicate(ctx, w, cfg.PerturbStd), nil
}
