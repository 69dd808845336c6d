package core

import (
	"errors"

	"repro/internal/dataset"
	"repro/internal/fl"
)

// RealData is the Fig. 8 comparison attack: instead of synthetic images, the
// adversary owns real task images (assigned under the same Dirichlet
// distribution as benign users) and pairs them with the uniformly chosen
// label Ỹ, training the adversarial classifier with the same
// distance-regularized loss as DFA. The paper uses it to show that the
// *synthetic* sets of DFA-R/DFA-G are more effective than real data, so
// acquiring data is usually not worth the overhead for the attacker.
type RealData struct {
	cfg   DFAConfig
	data  *dataset.Dataset
	shard []int
	clf   *classifier // the adversarial classifier's storage
}

var _ fl.Attack = (*RealData)(nil)

// NewRealData constructs the real-data attack over the adversary's shard.
func NewRealData(cfg DFAConfig, data *dataset.Dataset, shard []int) (*RealData, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if data == nil || len(shard) == 0 {
		return nil, errors.New("core: real-data attack requires a data shard")
	}
	return &RealData{cfg: cfg, data: data, shard: append([]int(nil), shard...), clf: newClassifier()}, nil
}

// Name implements fl.Attack.
func (*RealData) Name() string { return "real-data" }

// Craft implements fl.Attack.
func (a *RealData) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	idx := a.shard
	if len(idx) > a.cfg.SampleCount {
		idx = idx[:a.cfg.SampleCount]
	}
	images, _ := a.data.Batch(idx)
	yTilde := ctx.Rng.Intn(a.cfg.Classes)
	labels := make([]int, len(idx))
	for i := range labels {
		labels[i] = yTilde
	}
	w, err := a.clf.train(ctx, a.cfg, images, labels)
	if err != nil {
		return nil, err
	}
	return fl.Replicate(ctx, w, a.cfg.PerturbStd), nil
}
