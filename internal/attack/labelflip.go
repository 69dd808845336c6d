package attack

import (
	"errors"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LabelFlip is the classic data-poisoning baseline (Tolpegin et al.,
// referenced in Section II-B): the adversary trains honestly on real data
// but with every label l replaced by L−1−l. Unlike DFA it requires the
// adversary to possess real task data.
type LabelFlip struct {
	// Data is the adversary's real dataset.
	Data *dataset.Dataset
	// Shard indexes the samples the adversary owns.
	Shard []int
	// LR, Epochs and BatchSize configure the local training run.
	LR        float64
	Epochs    int
	BatchSize int

	// order, x and labels are the training run's shuffle order and
	// minibatch, reused from craft to craft.
	order  []int
	x      *tensor.Tensor
	labels []int
}

var _ fl.Attack = (*LabelFlip)(nil)

// Name implements fl.Attack.
func (*LabelFlip) Name() string { return "labelflip" }

// Craft implements fl.Attack.
func (a *LabelFlip) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	if a.Data == nil || len(a.Shard) == 0 {
		return nil, errors.New("attack: labelflip requires real data")
	}
	model := ctx.NewModel(ctx.Rng)
	if err := model.SetWeightVector(ctx.Global); err != nil {
		return nil, err
	}
	opt := nn.NewSGD(a.LR, 0)
	a.order = append(a.order[:0], a.Shard...)
	idx := a.order
	batch := a.BatchSize
	if batch <= 0 {
		batch = 16
	}
	epochs := a.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	for e := 0; e < epochs; e++ {
		ctx.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			a.x, a.labels = a.Data.BatchInto(a.x, a.labels, idx[start:end])
			for i, l := range a.labels {
				a.labels[i] = a.Data.Classes - 1 - l
			}
			nn.TrainBatch(model, opt, a.x, a.labels)
		}
	}
	return fl.Replicate(ctx, model.WeightVector(), 0), nil
}
