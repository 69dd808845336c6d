package core

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/vec"
)

// AdaptiveREFD implements the future-work direction the paper sketches for
// REFD's α hyper-parameter ("It can also be adaptive and learned over
// epochs"): instead of fixing the balance-vs-confidence trade-off, the
// server re-estimates α every round from which of the two signals currently
// separates the update population more sharply.
//
// Intuition: when the round's updates disagree mostly in their *balance*
// values (a DFA-G/LIE-style attack biasing predictions), α should grow so B
// dominates the D-score; when they disagree mostly in *confidence* (a
// DFA-R/Fang-style attack), α should shrink so V dominates. The dispersion
// of each signal is measured by its coefficient of variation over the
// round's updates.
type AdaptiveREFD struct {
	inner *REFD
	// MinAlpha and MaxAlpha clamp the adapted value.
	MinAlpha, MaxAlpha float64
	// lastAlpha records the α used in the most recent round.
	lastAlpha float64
}

var _ fl.Aggregator = (*AdaptiveREFD)(nil)

// NewAdaptiveREFD builds the adaptive variant; parameters mirror NewREFD
// except that α is learned per round within [minAlpha, maxAlpha].
func NewAdaptiveREFD(ref *dataset.Dataset, newModel func(rng *rand.Rand) *nn.Network, rejectX int, minAlpha, maxAlpha float64) (*AdaptiveREFD, error) {
	inner, err := NewREFD(ref, newModel, 1, rejectX)
	if err != nil {
		return nil, err
	}
	if minAlpha <= 0 || maxAlpha < minAlpha {
		minAlpha, maxAlpha = 0.25, 4
	}
	return &AdaptiveREFD{inner: inner, MinAlpha: minAlpha, MaxAlpha: maxAlpha, lastAlpha: 1}, nil
}

// Name implements fl.Aggregator.
func (*AdaptiveREFD) Name() string { return "refd-adaptive" }

// Aggregate implements fl.Aggregator. Like REFD it reports the per-update
// D-scores (under the adapted α) as Selection.Scores.
func (a *AdaptiveREFD) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if len(updates) == 0 {
		return nil, fl.Selection{}, errRefdNoUpdates
	}
	// First pass: collect both signals for every update, through the same
	// parallel scoring path REFD aggregates with.
	bs, vs, err := a.inner.signalsAll(global, updates)
	if err != nil {
		return nil, fl.Selection{}, err
	}
	// Adapt α from the relative dispersion (coefficient of variation) of
	// the two signals across this round's updates.
	cvB := coeffVar(bs)
	cvV := coeffVar(vs)
	alpha := a.lastAlpha
	switch {
	case cvB == 0 && cvV == 0:
		alpha = 1
	case cvV == 0:
		alpha = a.MaxAlpha
	case cvB == 0:
		alpha = a.MinAlpha
	default:
		alpha = clampF(math.Sqrt(cvB/cvV), a.MinAlpha, a.MaxAlpha)
	}
	a.lastAlpha = alpha

	// Second pass: score with the adapted α and reject the X lowest,
	// mirroring REFD.Aggregate.
	scores := make([]float64, len(updates))
	for i := range updates {
		scores[i] = combineD(bs[i], vs[i], alpha)
	}
	order := make([]int, len(updates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return scores[order[x]] < scores[order[y]] })
	reject := a.inner.rejectX
	if reject >= len(updates) {
		reject = len(updates) - 1
	}
	selected := append([]int(nil), order[reject:]...)
	sort.Ints(selected)

	chosen := make([][]float64, len(selected))
	weights := make([]float64, len(selected))
	for i, idx := range selected {
		chosen[i] = updates[idx].Vector(global)
		n := updates[idx].NumSamples
		if n <= 0 {
			n = 1
		}
		weights[i] = float64(n)
	}
	sel := fl.Selection{Accepted: selected, Scores: scores, ScoreName: "dscore"}
	return vec.WeightedMean(chosen, weights), sel, nil
}

func coeffVar(xs []float64) float64 {
	mean, std := vec.MeanStdScalar(xs)
	if mean == 0 {
		return 0
	}
	return std / math.Abs(mean)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
