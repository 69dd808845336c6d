package fl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/persist"
)

// driftTransport trains nothing: client id's update pulls the global toward
// a point of its own and carries some of the last step w − w(t−1), so a
// round's result depends on both vectors a checkpoint restores.
var driftTransport = transportFunc(func(round int, ids []int, global, prev []float64) ([]Update, error) {
	ups := make([]Update, len(ids))
	for k, id := range ids {
		w := make([]float64, len(global))
		for i := range w {
			target := math.Sin(float64(7*id + 3*i + round))
			w[i] = global[i] + 0.3*(target-global[i]) + 0.1*(global[i]-prev[i])
		}
		ups[k] = Update{ClientID: id, Weights: w, NumSamples: 10 + id}
	}
	return ups, nil
})

// driftAccuracy scores a global by a fixed function of its weights, so a
// resumed run's accuracies are comparable with the uninterrupted run's.
func driftAccuracy(w []float64) (float64, error) {
	s := 0.0
	for _, x := range w {
		s += x
	}
	return math.Abs(math.Sin(s)), nil
}

// noisyAttack crafts from the round's craft stream and perturbs each copy
// with its attacker's noise, so a resumed round crafts what the
// uninterrupted run's does only if both are the round's own draws.
type noisyAttack struct{}

func (noisyAttack) Name() string { return "noisy" }

func (noisyAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	v := make([]float64, len(ctx.Global))
	for i := range v {
		v[i] = ctx.Global[i] + ctx.Rng.NormFloat64()
	}
	return Replicate(ctx, v, 0.01), nil
}

// runResumable runs 10 clients of sc for rounds rounds from initial — after
// at's round when at is non-nil — and returns the result, the final
// weights, and the Resume the checkpoint hook received for the last round.
// Attacked, every third client is a noisyAttack attacker.
func runResumable(sc func() Scenario, attacked bool, rounds int, initial []float64, at *persist.Resume) (*Result, []float64, persist.Resume, error) {
	var last persist.Resume
	eng := &Engine{
		TotalClients: 10,
		PerRound:     4,
		Rounds:       rounds,
		Seed:         3,
		Scenario:     sc(),
		Transport:    driftTransport,
		Aggregator:   meanAggregator{},
		Evaluate:     driftAccuracy,
		Resume:       at,
		OnRound: func(_ RoundStats, _ []float64, r persist.Resume) error {
			last = r
			last.Prev = slices.Clone(r.Prev)
			return nil
		},
	}
	if attacked {
		eng.Attack, eng.AttackSamples = noisyAttack{}, 10
		eng.IsMalicious = func(id int) bool { return id%3 == 0 }
	}
	res, final, err := eng.Run(slices.Clone(initial))
	return res, final, last, err
}

// TestResumeBitIdentical: killed after any round r ∈ [1, R−1] and resumed
// from its checkpoint's Resume, a run ends bit-identical to the
// uninterrupted one, accuracies included, under every sampler,
// participation model and stateless server optimizer, attacked or not:
// round r draws only from (seed, r), so nothing is replayed.
func TestResumeBitIdentical(t *testing.T) {
	const rounds = 5
	initial := []float64{0.5, -0.25, 1, 0}
	samplers := map[string]ClientSampler{
		"uniform":   nil,
		"bernoulli": BernoulliSampler{P: 0.4},
		"weighted":  WeightedSampler{K: 4, Weights: []float64{1, 2, 3, 4, 5, 5, 4, 3, 2, 1}},
	}
	parts := map[string]ParticipationModel{
		"full":  nil,
		"churn": RandomChurn{DropoutProb: 0.2, StragglerProb: 0.1},
	}
	opts := map[string]func() ServerOptimizer{
		"plain":     func() ServerOptimizer { return PlainApply{} },
		"server-lr": func() ServerOptimizer { return ServerLRApply{Eta: 0.7} },
	}
	for sName, sampler := range samplers {
		for pName, part := range parts {
			for oName, opt := range opts {
				for _, attacked := range []bool{false, true} {
					sc := func() Scenario { return Scenario{Sampler: sampler, Participation: part, ServerOpt: opt()} }
					straight, want, _, err := runResumable(sc, attacked, rounds, initial, nil)
					if err != nil {
						t.Fatal(err)
					}
					for kill := 1; kill < rounds; kill++ {
						name := fmt.Sprintf("%s/%s/%s/attacked=%v/kill-%d", sName, pName, oName, attacked, kill)
						_, cp, at, err := runResumable(sc, attacked, kill, initial, nil)
						if err != nil {
							t.Fatal(err)
						}
						res, got, _, err := runResumable(sc, attacked, rounds, cp, &at)
						if err != nil {
							t.Fatalf("%s: resume refused: %v", name, err)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s: resumed weight %d = %v, uninterrupted %v", name, i, got[i], want[i])
							}
						}
						if res.MaxAccuracy != straight.MaxAccuracy || res.FinalAccuracy != straight.FinalAccuracy {
							t.Fatalf("%s: resumed accuracy %v (max %v), uninterrupted %v (max %v)",
								name, res.FinalAccuracy, res.MaxAccuracy, straight.FinalAccuracy, straight.MaxAccuracy)
						}
					}
				}
			}
		}
	}
	// A resume always carries w(t−1): one without it is refused, never run
	// from a guessed previous global.
	plain := func() Scenario { return Scenario{} }
	if _, _, _, err := runResumable(plain, false, rounds, initial, &persist.Resume{Round: 1}); err == nil {
		t.Fatal("a resume without w(t−1) ran")
	}
}

// TestFedAvgMResumeRefused: FedAvgM's velocity is carried from round to
// round and no checkpoint holds it, so a resumed run would silently diverge
// from the uninterrupted one; the engine refuses it with a typed error
// naming the component.
func TestFedAvgMResumeRefused(t *testing.T) {
	sc := func() Scenario { return Scenario{ServerOpt: NewFedAvgM(1, 0.9)} }
	initial := []float64{0.5, -0.25, 1, 0}
	_, cp, at, err := runResumable(sc, false, 2, initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = runResumable(sc, false, 5, cp, &at)
	var re *ResumeError
	if !errors.As(err, &re) || re.Component != "fedavgm" {
		t.Fatalf("FedAvgM resume: err %v, want a *ResumeError naming fedavgm", err)
	}
}
