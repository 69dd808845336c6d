package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// REFD is the paper's defense against data-free attacks (Section V): the
// server runs every received model on a small balanced reference dataset
// D_r and computes a D-score from two signals —
//
//   - the balance value B (Eq. 6): the inverse standard deviation of the
//     predicted-label histogram, low when the update biases predictions
//     toward one class (typical of DFA-G, LIE, Min-Max);
//   - the confidence value V (Eq. 7): the mean maximum class probability,
//     low when the update destroys prediction confidence (typical of DFA-R
//     and Fang).
//
// The two combine F_β-style (Eq. 8) and the X lowest-scoring updates are
// rejected; the rest are FedAvg-aggregated.
type REFD struct {
	ref      *dataset.Dataset
	newModel func(rng *rand.Rand) *nn.Network
	alpha    float64
	rejectX  int
	scratch  *nn.Network
	// helpers are the persistent parallel scorers of signalsAll, each with
	// its own scratch model and arena reused across rounds.
	helpers []*REFD
}

var _ fl.Aggregator = (*REFD)(nil)

// NewREFD builds the defense. ref must be a labelled reference set with a
// balanced class distribution (see BalancedReference); alpha weighs B
// against V (the paper uses 1); rejectX is the number of updates discarded
// per round (the paper uses 2, the server's assumed attacker count).
func NewREFD(ref *dataset.Dataset, newModel func(rng *rand.Rand) *nn.Network, alpha float64, rejectX int) (*REFD, error) {
	if ref == nil || ref.Len() == 0 {
		return nil, errors.New("core: REFD requires a non-empty reference dataset")
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("core: REFD alpha %v must be positive", alpha)
	}
	if rejectX < 0 {
		return nil, fmt.Errorf("core: REFD rejectX %d must be non-negative", rejectX)
	}
	return &REFD{ref: ref, newModel: newModel, alpha: alpha, rejectX: rejectX}, nil
}

// Name implements fl.Aggregator.
func (*REFD) Name() string { return "refd" }

// dScore computes the balance value, confidence value and combined D-score
// of a model given its weight vector, by inference over the reference set.
func (r *REFD) dScore(weights []float64) (b, v, d float64, err error) {
	b, v, err = r.signals(weights)
	if err != nil {
		return 0, 0, 0, err
	}
	return b, v, combineD(b, v, r.alpha), nil
}

// signals runs reference-set inference for one weight vector and returns
// the balance value B (Eq. 6) and confidence value V (Eq. 7).
func (r *REFD) signals(weights []float64) (b, v float64, err error) {
	if r.scratch == nil {
		r.scratch = r.newModel(rand.New(rand.NewSource(1)))
		r.scratch.SetScratch(tensor.NewPool())
	}
	if err := r.scratch.SetWeightVector(weights); err != nil {
		return 0, 0, err
	}
	counts := make([]float64, r.ref.Classes)
	confSum := 0.0
	n := r.ref.Len()
	const batch = 64
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, _ := r.ref.Batch(idx)
		r.scratch.ResetScratch()
		probs := nn.Softmax(r.scratch.Forward(x, false))
		classes := probs.Shape[1]
		for bi := 0; bi < probs.Shape[0]; bi++ {
			row := probs.Data[bi*classes : (bi+1)*classes]
			best := 0
			for j, p := range row {
				if p > row[best] {
					best = j
				}
			}
			counts[best]++
			confSum += row[best]
		}
	}
	// Balance value (Eq. 6): inverse std of the label histogram; a
	// perfectly balanced histogram has std 0 and is assigned B = 1 by the
	// paper's case split.
	_, std := vec.MeanStdScalar(counts)
	if std == 0 {
		b = 1
	} else {
		b = 1 / std
	}
	// Confidence value (Eq. 7).
	v = confSum / float64(n)
	return b, v, nil
}

// combineD folds the two signals into the D-score (Eq. 8).
func combineD(b, v, alpha float64) float64 {
	if b == 0 && v == 0 {
		return 0
	}
	a2 := alpha * alpha
	return (1 + a2) * b * v / (a2*b + v)
}

// signalsAll computes the (B, V) signals of every update, spreading the
// reference-set inference over the kernel worker pool: each worker scores
// with its own scratch model and arena, so no layer state is shared, and
// reconstructs a frame-only update against global just for its scoring.
// Both REFD and AdaptiveREFD aggregate through this one scoring path.
func (r *REFD) signalsAll(global []float64, updates []fl.Update) (bs, vs []float64, err error) {
	bs = make([]float64, len(updates))
	vs = make([]float64, len(updates))
	// Workers drain the updates within the global slot budget, keeping the
	// total compute goroutines within the -threads pin. Helper scorers
	// (with their scratch models and arenas) persist on the receiver, so
	// repeated rounds reuse them like the simulation's training workers.
	workers := min(tensor.Workers(), len(updates))
	for len(r.helpers) < workers-1 {
		r.helpers = append(r.helpers, &REFD{ref: r.ref, newModel: r.newModel, alpha: r.alpha, rejectX: r.rejectX})
	}
	errs := make([]error, len(updates))
	tensor.Drain(workers, len(updates), func(w, i int) {
		worker := r
		if w > 0 {
			worker = r.helpers[w-1]
		}
		bs[i], vs[i], errs[i] = worker.signals(updates[i].Vector(global))
	})
	for _, werr := range errs {
		if werr != nil {
			return nil, nil, werr
		}
	}
	return bs, vs, nil
}

// errRefdNoUpdates is shared by REFD and AdaptiveREFD.
var errRefdNoUpdates = errors.New("core: REFD has no updates to aggregate")

// Aggregate implements fl.Aggregator. The Selection carries the per-update
// D-scores (higher = more benign), the ROC input of the forensics
// subsystem. Each update's score is a pure function of its weights and the
// reference set — worker scheduling in signalsAll never reorders or
// perturbs the vector, so audit journals are bit-reproducible at any
// tensor worker count.
func (r *REFD) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if len(updates) == 0 {
		return nil, fl.Selection{}, errRefdNoUpdates
	}
	bs, vs, err := r.signalsAll(global, updates)
	if err != nil {
		return nil, fl.Selection{}, err
	}
	out, sel := keepHighest(global, updates, dScores(bs, vs, r.alpha), r.rejectX)
	return out, sel, nil
}

// dScores folds every update's balance and confidence values into its
// D-score (Eq. 8).
func dScores(bs, vs []float64, alpha float64) []float64 {
	scores := make([]float64, len(bs))
	for i := range scores {
		scores[i] = combineD(bs[i], vs[i], alpha)
	}
	return scores
}

// keepHighest rejects the rejectX lowest-scoring updates, keeping at least
// one, and returns the sample-weighted mean of the rest with the round's
// Selection. Equal scores rank by client ID, so which of a Sybil's
// identical copies is rejected never depends on the order updates arrived
// in. REFD and AdaptiveREFD both select through it.
func keepHighest(global []float64, updates []fl.Update, scores []float64, rejectX int) ([]float64, fl.Selection) {
	order := make([]int, len(updates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sa, sb := scores[order[a]], scores[order[b]]; sa != sb {
			return sa < sb
		}
		return updates[order[a]].ClientID < updates[order[b]].ClientID
	})
	reject := min(rejectX, len(updates)-1) // always keep at least one update
	selected := append([]int(nil), order[reject:]...)
	sort.Ints(selected)

	vs := make([][]float64, len(selected))
	weights := make([]float64, len(selected))
	for i, idx := range selected {
		vs[i] = updates[idx].Vector(global)
		weights[i] = float64(max(updates[idx].NumSamples, 1))
	}
	sel := fl.Selection{Accepted: selected, Scores: scores, ScoreName: "dscore"}
	return vec.WeightedMean(vs, weights), sel
}

// BalancedReference extracts a class-balanced labelled subset of perClass
// samples per class from ds, the reference-set shape REFD assumes ("the
// quantity of each class label is assumed to be balanced"). It returns an
// error when some class has fewer than perClass samples.
func BalancedReference(ds *dataset.Dataset, perClass int) (*dataset.Dataset, error) {
	if perClass <= 0 {
		return nil, fmt.Errorf("core: perClass %d must be positive", perClass)
	}
	var idx []int
	taken := make([]int, ds.Classes)
	for i, l := range ds.Labels {
		if taken[l] < perClass {
			idx = append(idx, i)
			taken[l]++
		}
	}
	for c, n := range taken {
		if n < perClass {
			return nil, fmt.Errorf("core: class %d has only %d samples, want %d", c, n, perClass)
		}
	}
	return ds.Subset(idx), nil
}
