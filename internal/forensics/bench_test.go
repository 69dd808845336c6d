package forensics

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
)

// benchRound builds a production-shaped round: K updates of dimension d.
func benchRound(k, d int) ([]float64, []fl.Update, fl.Selection) {
	rng := rand.New(rand.NewSource(1))
	global := make([]float64, d)
	updates := make([]fl.Update, k)
	scores := make([]float64, k)
	accepted := make([]int, 0, k)
	for i := range updates {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		mal := i%10 == 0
		updates[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 32, Malicious: mal}
		scores[i] = rng.Float64()
		if !mal {
			accepted = append(accepted, i)
		}
	}
	return global, updates, fl.Selection{Accepted: accepted, Scores: scores, ScoreName: "bench"}
}

// BenchmarkFingerprints50x10k measures the raw fingerprint cost of a
// 50-update round at a 10k-parameter model without a shared distance
// matrix — the worst case (REFD-style defenses that never computed one).
func BenchmarkFingerprints50x10k(b *testing.B) {
	global, updates, _ := benchRound(50, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fingerprints(global, updates, nil)
	}
}

// BenchmarkObserveAggregation50x10k measures the full per-round forensic
// pipeline — fingerprints, confusion join, round ROC, reservoir, ring —
// for the same 50×10k round.
func BenchmarkObserveAggregation50x10k(b *testing.B) {
	global, updates, sel := benchRound(50, 10000)
	c, err := NewCollector(Options{Defense: "bench", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveAggregation(i, global, updates, sel)
	}
}

// benchSim builds the flsim bench cell (mkrum under attack) with or
// without the forensics observer, to price its round-latency overhead.
func benchSim(b *testing.B, obs fl.AggregationObserver) *fl.Simulation {
	b.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 1)
	shards := dataset.PartitionIID(rand.New(rand.NewSource(1)), train.Len(), 20)
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	cfg := fl.Config{
		TotalClients: 20,
		PerRound:     8,
		Rounds:       3,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         1,
		EvalLimit:    128,
		Parallel:     true,
		Observer:     obs,
	}
	sim, err := fl.NewSimulation(cfg, train, test, fl.Shards(shards), population.FirstK{K: 5}, newModel, &defense.MultiKrum{F: 2}, benchAttack{})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

type benchAttack struct{}

func (benchAttack) Name() string { return "bench" }

func (benchAttack) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		v := make([]float64, len(ctx.Global))
		for j := range v {
			v[j] = 10
		}
		out[i] = v
	}
	return out, nil
}

// BenchmarkEngineRoundsForensicsOff is the baseline flsim bench cell:
// three attacked mKrum rounds, no observer.
func BenchmarkEngineRoundsForensicsOff(b *testing.B) {
	sim := benchSim(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRoundsForensicsOn is the same cell with the full
// forensic pipeline attached (fingerprints reuse mKrum's distance
// matrix). The ratio to ForensicsOff is the acceptance overhead.
func BenchmarkEngineRoundsForensicsOn(b *testing.B) {
	col, err := NewCollector(Options{Defense: "mkrum", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sim := benchSim(b, col)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
