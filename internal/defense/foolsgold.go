package defense

import (
	"math"

	"repro/internal/fl"
	"repro/internal/vec"
)

// FoolsGold is the Sybil defense of Fung et al. discussed in Section II-C of
// the paper: clients whose *historical* update directions are suspiciously
// similar (as Sybils controlled by one adversary tend to be) receive low
// aggregation weights. The paper's threat model notes that attackers can
// evade it by adding small perturbation noise to their copies, which the DFA
// implementations support via their PerturbStd option — this implementation
// exists to make that trade-off reproducible.
//
// FoolsGold is stateful across rounds (it accumulates per-client update
// history), so a fresh instance must be used per simulation.
type FoolsGold struct {
	// Kappa is the logit-scaling confidence parameter (Fung et al. use 1).
	Kappa float64

	history map[int][]float64
}

var _ fl.Aggregator = (*FoolsGold)(nil)

// NewFoolsGold returns a FoolsGold aggregator with empty history.
func NewFoolsGold(kappa float64) *FoolsGold {
	if kappa <= 0 {
		kappa = 1
	}
	return &FoolsGold{Kappa: kappa, history: make(map[int][]float64)}
}

// Name implements fl.Aggregator.
func (*FoolsGold) Name() string { return "foolsgold" }

// CarriedState implements fl.RoundState: the history.
func (*FoolsGold) CarriedState() error {
	return &fl.ResumeError{Component: "foolsgold", State: "per-client update history"}
}

// Aggregate implements fl.Aggregator. The Selection reports the logit
// weights both as Scores (higher = more benign; the ROC input for the
// forensics subsystem) and, normalized, as the actual aggregation Weights.
// Scores are computed per update with a fixed accumulation order, so they
// are bit-identical at any tensor worker count — audit journals reproduce.
func (f *FoolsGold) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	n := len(updates)
	if n == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	// Accumulate per-client historical update directions (w_i − w(t)).
	// Sparse codec frames scatter-add their k kept coordinates directly —
	// O(k) instead of O(d) per client; the similarity matrix below still
	// runs dense, because histories accumulate across rounds.
	dirs := make([][]float64, n)
	for i, u := range updates {
		hist, ok := f.history[u.ClientID]
		if !ok {
			hist = make([]float64, len(global))
		}
		if u.Frame != nil && u.Frame.IsDelta() {
			u.Frame.AddDelta(hist)
		} else {
			vec.Axpy(hist, 1, vec.Sub(u.Vector(global), global))
		}
		f.history[u.ClientID] = hist
		dirs[i] = hist
	}
	// Pairwise cosine similarity of histories, via the shared
	// distance-matrix service (norms computed once, rows in parallel).
	cs := vec.CosineMatrix(dirs)
	// Max similarity per client, with the pardoning step of Fung et al.:
	// clients more "aligned" than their most similar peer are pardoned
	// proportionally.
	maxcs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && cs[i][j] > maxcs[i] {
				maxcs[i] = cs[i][j]
			}
		}
	}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 1.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			adjusted := cs[i][j]
			if maxcs[j] > 0 && maxcs[i] < maxcs[j] {
				adjusted *= maxcs[i] / maxcs[j] // pardoning
			}
			if adjusted > 1-w {
				w = 1 - adjusted
			}
		}
		weights[i] = clamp01(w)
	}
	// Logit scaling sharpens the cut between Sybils and honest clients.
	for i, w := range weights {
		if w >= 1 {
			weights[i] = 1
			continue
		}
		if w <= 0 {
			weights[i] = 0
			continue
		}
		lw := f.Kappa * (math.Log(w/(1-w)) + 0.5)
		weights[i] = clamp01(lw)
	}
	// Selected = clients with non-zero aggregation weight (for DPR).
	selected := []int{}
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			selected = append(selected, i)
			total += w
		}
	}
	sel := fl.Selection{
		Accepted:  selected,
		Scores:    append([]float64(nil), weights...),
		ScoreName: "foolsgold-weight",
	}
	if total == 0 {
		// Degenerate round: every update looked like a Sybil. Fall back to
		// the current global model (no-op round); the empty Accepted lets
		// DPR and the detection metrics record an all-filtered round rather
		// than skipping it.
		return vec.Clone(global), sel, nil
	}
	norm := make([]float64, n)
	for i, w := range weights {
		norm[i] = w / total
	}
	sel.Weights = norm
	out := make([]float64, len(global))
	for i, u := range updates {
		if weights[i] == 0 {
			continue
		}
		vec.Axpy(out, norm[i], u.Vector(global))
	}
	return out, sel, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
