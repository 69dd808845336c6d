// Package attack implements the state-of-the-art untargeted baseline
// attacks the paper compares DFA against (Table I): LIE (Baruch et al.),
// Fang (Fang et al., the unknown-defense directed-deviation variant), and
// Min-Max / Min-Sum (Shejwalkar & Houmansadr), plus the naive random-weights
// attack the paper uses to motivate optimization-based synthesis
// (Section III-B) and a classic label-flipping attack.
//
// The four baselines and SignFlip require adversarial knowledge that DFA
// does not: they read the current round's benign updates through the
// fl.AttackContext oracle, exactly the assumption gap Table I documents,
// and declare it by implementing fl.OracleAttack. RandomWeights, FreeRider
// and LabelFlip read no benign update and do not.
package attack

import (
	"errors"

	"repro/internal/fl"
	"repro/internal/vec"
)

// errNoBenign signals that a knowledge-based attack had no benign updates to
// observe this round; callers fall back to submitting the global model.
var errNoBenign = errors.New("attack: no benign updates observed")

// fallback is used when an oracle-based attack cannot observe any benign
// update in a round: the attackers submit the unchanged global model, which
// is harmless and maximally inconspicuous.
func fallback(ctx *fl.AttackContext) [][]float64 {
	return fl.Replicate(ctx, ctx.Global, 0)
}

// RandomWeights is the naive attack of Section III-B: submit a model whose
// every weight is drawn uniformly from the per-coordinate range of the
// current global model. The paper reports it almost never passes defenses
// (2.62%/6.57% DPR under mKrum), which motivates DFA's optimization
// approach. Each attacker draws its vector from its own Noise stream.
type RandomWeights struct{}

var _ fl.Attack = RandomWeights{}

// Name implements fl.Attack.
func (RandomWeights) Name() string { return "random" }

// Craft implements fl.Attack.
func (RandomWeights) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	lo, hi := ctx.Global[0], ctx.Global[0]
	for _, w := range ctx.Global {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		rng := ctx.Noise(i)
		v := make([]float64, len(ctx.Global))
		for j := range v {
			v[j] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out, nil
}

// LIE is the "a little is enough" attack of Baruch et al.: shift the benign
// mean by z standard deviations per coordinate, with z derived from the
// population so the shifted update still looks like a plausible benign one.
type LIE struct {
	// ZOverride forces a specific z when positive. With the paper's
	// population (n=10 selected, m=2 attackers) the closed-form z of Baruch
	// et al. degenerates to 0, so the canonical fallback of their paper
	// (z ≈ 0.3) is used as a lower bound when ZOverride is 0.
	ZOverride float64
}

var _ fl.OracleAttack = LIE{}

// ReadsBenignUpdates implements fl.OracleAttack.
func (LIE) ReadsBenignUpdates() {}

// Name implements fl.Attack.
func (LIE) Name() string { return "lie" }

// Z returns the shift factor for a round with n selected clients of which m
// are attackers.
func (a LIE) Z(n, m int) float64 {
	if a.ZOverride > 0 {
		return a.ZOverride
	}
	// s = ⌊n/2 + 1⌋ − m supporters needed; z = Φ⁻¹((n−m−s)/(n−m)).
	s := n/2 + 1 - m
	den := float64(n - m)
	if den <= 0 {
		return 0.3
	}
	p := float64(n-m-s) / den
	if p <= 0 || p >= 1 {
		return 0.3
	}
	z := vec.NormInvCDF(p)
	if z < 0.3 {
		z = 0.3
	}
	return z
}

// Craft implements fl.Attack.
func (a LIE) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	if len(ctx.BenignUpdates) == 0 {
		return fallback(ctx), nil
	}
	mean := vec.Mean(ctx.BenignUpdates)
	std := vec.Std(ctx.BenignUpdates)
	z := a.Z(ctx.NumSelected, ctx.NumAttackers)
	mal := make([]float64, len(mean))
	for j := range mal {
		mal[j] = mean[j] - z*std[j]
	}
	return fl.Replicate(ctx, mal, 0), nil
}

// Fang is the local-model-poisoning attack of Fang et al., in the
// directed-deviation form designed for trimmed-mean/median aggregation
// (the variant the paper compares against when the defense is unknown):
// estimate each coordinate's benign direction of change, then submit values
// just beyond the opposite extreme of the benign range.
type Fang struct {
	// B is the range-extension factor (paper value: 2).
	B float64
}

var _ fl.OracleAttack = Fang{}

// ReadsBenignUpdates implements fl.OracleAttack.
func (Fang) ReadsBenignUpdates() {}

// Name implements fl.Attack.
func (Fang) Name() string { return "fang" }

// Craft implements fl.Attack.
func (a Fang) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	if len(ctx.BenignUpdates) == 0 {
		return fallback(ctx), nil
	}
	b := a.B
	if b <= 1 {
		b = 2
	}
	mean := vec.Mean(ctx.BenignUpdates)
	dim := len(mean)
	lo := vec.Clone(ctx.BenignUpdates[0])
	hi := vec.Clone(ctx.BenignUpdates[0])
	for _, u := range ctx.BenignUpdates[1:] {
		for j := 0; j < dim; j++ {
			if u[j] < lo[j] {
				lo[j] = u[j]
			}
			if u[j] > hi[j] {
				hi[j] = u[j]
			}
		}
	}
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		rng := ctx.Noise(i)
		v := make([]float64, dim)
		for j := 0; j < dim; j++ {
			dir := mean[j] - ctx.Global[j] // estimated benign change direction
			u := rng.Float64()
			if dir > 0 {
				// Benign clients push the coordinate up; submit below the
				// benign minimum.
				if lo[j] > 0 {
					v[j] = lo[j]/b + u*(lo[j]-lo[j]/b)
				} else {
					v[j] = lo[j]*b + u*(lo[j]-lo[j]*b)
				}
			} else {
				// Benign clients push it down (or hold); submit above the
				// benign maximum.
				if hi[j] > 0 {
					v[j] = hi[j] + u*(hi[j]*b-hi[j])
				} else {
					v[j] = hi[j] + u*(hi[j]/b-hi[j])
				}
			}
		}
		out[i] = v
	}
	return out, nil
}

// PerturbKind selects the perturbation direction ∇p of the Min-Max/Min-Sum
// attacks.
type PerturbKind int

// Perturbation directions from Shejwalkar & Houmansadr beside the zero
// PerturbKind, inverse standard deviation: the strongest in their
// evaluation and the paper's default.
const (
	PerturbUnit PerturbKind = iota + 1
	PerturbSign
)

func perturbation(kind PerturbKind, benign [][]float64, mean []float64) []float64 {
	switch kind {
	case PerturbUnit:
		return vec.Scale(vec.Unit(mean), -1)
	case PerturbSign:
		return vec.Scale(vec.Sign(mean), -1)
	default:
		return vec.Scale(vec.Std(benign), -1)
	}
}

// gammaSearch finds the largest gamma in [0, gammaInit] such that
// ok(gamma) holds, via binary search to the given precision. ok must be
// monotone (true for small gamma).
func gammaSearch(gammaInit, precision float64, ok func(float64) bool) float64 {
	lo, hi := 0.0, gammaInit
	if ok(hi) {
		return hi
	}
	for hi-lo > precision {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MinMax is the AGR-agnostic attack of Shejwalkar & Houmansadr: the
// malicious update is the benign mean plus γ·∇p with γ maximized subject to
// the malicious update's maximum distance to any benign update not
// exceeding the maximum pairwise benign distance.
type MinMax struct {
	// Kind selects ∇p (default: inverse std).
	Kind PerturbKind
	// GammaInit bounds the search (default 50, per the reference code).
	GammaInit float64
}

var _ fl.OracleAttack = MinMax{}

// ReadsBenignUpdates implements fl.OracleAttack.
func (MinMax) ReadsBenignUpdates() {}

// Name implements fl.Attack.
func (MinMax) Name() string { return "minmax" }

// Craft implements fl.Attack.
func (a MinMax) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	mal, err := a.vector(ctx.BenignUpdates)
	if err != nil {
		if errors.Is(err, errNoBenign) {
			return fallback(ctx), nil
		}
		return nil, err
	}
	return fl.Replicate(ctx, mal, 0), nil
}

func (a MinMax) vector(benign [][]float64) ([]float64, error) {
	if len(benign) == 0 {
		return nil, errNoBenign
	}
	mean := vec.Mean(benign)
	p := perturbation(a.Kind, benign, mean)
	bound := vec.MaxPairwiseSqDist(benign)
	gInit := a.GammaInit
	if gInit <= 0 {
		gInit = 50
	}
	cand := make([]float64, len(mean))
	gamma := gammaSearch(gInit, 1e-4, func(g float64) bool {
		shift(cand, mean, p, g)
		worst := 0.0
		for _, bu := range benign {
			if d := vec.SqDist(cand, bu); d > worst {
				worst = d
			}
		}
		return worst <= bound
	})
	return shift(cand, mean, p, gamma), nil
}

// shift fills cand with the γ-search candidate mean + g·p and returns it,
// bit for bit vec.Add(mean, vec.Scale(p, g)): the conversion rounds the
// product before the add, so the two cannot fuse into an FMA. Every γ step
// of a Craft refills the one candidate.
func shift(cand, mean, p []float64, g float64) []float64 {
	for i := range cand {
		cand[i] = mean[i] + float64(g*p[i])
	}
	return cand
}

// MinSum is the second AGR-agnostic attack of Shejwalkar & Houmansadr: like
// MinMax but the constraint bounds the *sum* of squared distances to all
// benign updates by the worst such sum among the benign updates themselves.
type MinSum struct {
	// Kind selects ∇p (default: inverse std).
	Kind PerturbKind
	// GammaInit bounds the search (default 50).
	GammaInit float64
}

var _ fl.OracleAttack = MinSum{}

// ReadsBenignUpdates implements fl.OracleAttack.
func (MinSum) ReadsBenignUpdates() {}

// Name implements fl.Attack.
func (MinSum) Name() string { return "minsum" }

// Craft implements fl.Attack.
func (a MinSum) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	benign := ctx.BenignUpdates
	if len(benign) == 0 {
		return fallback(ctx), nil
	}
	mean := vec.Mean(benign)
	p := perturbation(a.Kind, benign, mean)
	// The bound is the worst row sum of the shared pairwise-distance matrix.
	bound := 0.0
	for _, row := range vec.SqDistMatrix(benign) {
		sum := 0.0
		for _, d := range row {
			sum += d
		}
		if sum > bound {
			bound = sum
		}
	}
	gInit := a.GammaInit
	if gInit <= 0 {
		gInit = 50
	}
	cand := make([]float64, len(mean))
	gamma := gammaSearch(gInit, 1e-4, func(g float64) bool {
		shift(cand, mean, p, g)
		sum := 0.0
		for _, bu := range benign {
			sum += vec.SqDist(cand, bu)
		}
		return sum <= bound
	})
	return fl.Replicate(ctx, shift(cand, mean, p, gamma), 0), nil
}
