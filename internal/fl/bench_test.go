package fl

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func benchSetup(b *testing.B, parallel bool) *Simulation {
	b.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 1)
	rng := rand.New(rand.NewSource(1))
	shards := Shards(dataset.PartitionIID(rng, train.Len(), 20))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	cfg := Config{
		TotalClients: 20,
		PerRound:     8,
		Rounds:       3,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         1,
		EvalLimit:    128,
		Parallel:     parallel,
	}
	sim, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkSimulationRounds measures a short clean federated run — client
// selection, worker-pool local training, aggregation and evaluation — the
// end-to-end hot loop of every grid cell.
func BenchmarkSimulationRounds(b *testing.B) {
	sim := benchSetup(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBenignRound measures one round of worker-pool client
// training in isolation.
func BenchmarkTrainBenignRound(b *testing.B) {
	sim := benchSetup(b, true)
	global := sim.GlobalWeights()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Collect(i, ids, global, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures the persistent evaluator on a reused model.
func BenchmarkEvaluate(b *testing.B) {
	sim := benchSetup(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.eval.Accuracy(sim.global, true)
	}
}
