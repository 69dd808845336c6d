package fl

import (
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// evalBatch is the forward-pass batch size used during evaluation.
const evalBatch = 64

// Evaluator measures top-1 accuracy over a dataset with persistent
// per-worker model clones and scratch arenas, so the per-round evaluations
// of a simulation reuse their buffers instead of cloning the model and
// reallocating activations every round. The evaluated weights are copied
// into each worker clone, never shared, so workers hold no common layer
// state. The evaluated prefix never changes, so its batch tensors are
// gathered once, at the first evaluation, and read by every later one.
type Evaluator struct {
	ds      *dataset.Dataset
	limit   int
	workers []*evalWorker
	// batches and labels hold the evaluated prefix in evalBatch chunks.
	batches []*tensor.Tensor
	labels  [][]int
}

type evalWorker struct {
	model *nn.Network
	preds []int
}

// NewEvaluator creates an evaluator over the first limit samples of ds
// (limit <= 0 means all). Worker clones are created lazily from the first
// evaluated model.
func NewEvaluator(ds *dataset.Dataset, limit int) *Evaluator {
	return &Evaluator{ds: ds, limit: limit}
}

func (e *Evaluator) ensureWorkers(model *nn.Network, n int) {
	for len(e.workers) < n {
		clone := model.Clone()
		clone.SetScratch(tensor.NewPool())
		e.workers = append(e.workers, &evalWorker{model: clone})
	}
}

// gather builds the prefix's batch tensors on first use.
func (e *Evaluator) gather(n int) {
	if e.batches != nil {
		return
	}
	idx := make([]int, evalBatch)
	for start := 0; start < n; start += evalBatch {
		idx = idx[:min(evalBatch, n-start)]
		for i := range idx {
			idx[i] = start + i
		}
		x, labels := e.ds.Batch(idx)
		e.batches = append(e.batches, x)
		e.labels = append(e.labels, labels)
	}
}

// syncWeights copies src's parameters into dst (architectures must match).
func syncWeights(dst, src *nn.Network) {
	dp, sp := dst.Params(), src.Params()
	for i := range sp {
		copy(dp[i].Data, sp[i].Data)
	}
}

// countCorrect evaluates batch x and returns the number of correct top-1
// predictions.
func (w *evalWorker) countCorrect(x *tensor.Tensor, labels []int) int {
	w.model.ResetScratch()
	w.preds = nn.PredictInto(w.preds, w.model.Forward(x, false))
	correct := 0
	for i, p := range w.preds {
		if p == labels[i] {
			correct++
		}
	}
	return correct
}

// Accuracy returns model's top-1 accuracy on the evaluator's dataset. When
// parallel is true the evaluation batches are spread over the kernel worker
// pool; the result is identical either way, because each batch contributes
// an integer count.
func (e *Evaluator) Accuracy(model *nn.Network, parallel bool) float64 {
	n := e.ds.Len()
	if e.limit > 0 && e.limit < n {
		n = e.limit
	}
	if n == 0 {
		return 0
	}
	e.gather(n)
	chunks := len(e.batches)
	workers := 1
	if parallel {
		workers = tensor.Workers()
	}
	if workers > chunks {
		workers = chunks
	}
	e.ensureWorkers(model, workers)
	for _, w := range e.workers[:workers] {
		syncWeights(w.model, model)
	}

	// Workers drain the chunks within the global slot budget, keeping the
	// total compute goroutines within the -threads pin.
	results := make([]int, chunks)
	tensor.Drain(workers, chunks, func(wi, c int) {
		results[c] = e.workers[wi].countCorrect(e.batches[c], e.labels[c])
	})
	correct := 0
	for _, r := range results {
		correct += r
	}
	return float64(correct) / float64(n)
}

// Evaluate returns the model's top-1 accuracy on the first limit samples of
// the dataset (limit <= 0 means all). It is the one-shot form of Evaluator;
// simulations hold an Evaluator so per-round evaluations reuse their worker
// clones, arenas and batches.
func Evaluate(model *nn.Network, ds *dataset.Dataset, limit int, parallel bool) float64 {
	return NewEvaluator(ds, limit).Accuracy(model, parallel)
}
