package fl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestCollectSteadyStateAllocs pins what a round's clients cost the heap:
// nothing each. Once its workers, update slots and minibatches are warm, a
// Collect allocates the same fixed handful whether it trains 2 clients or
// 8, and whether each client runs 1 minibatch or 4.
func TestCollectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	// Pin to one worker: kernel fan-out adds goroutine bookkeeping.
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 5)
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	const clients, batch = 8, 8
	allocs := func(k, minibatches int) float64 {
		shards := make(Shards, clients)
		for i := range shards {
			for j := 0; j < minibatches*batch; j++ {
				shards[i] = append(shards[i], (i*minibatches*batch+j)%train.Len())
			}
		}
		cfg := Config{TotalClients: clients, PerRound: k, Rounds: 1, LocalEpochs: 1, BatchSize: batch, LR: 0.05, Seed: 1}
		sim, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		global := sim.GlobalWeights()
		ids := make([]int, k)
		for i := range ids {
			ids[i] = i
		}
		round := 0
		collect := func() {
			round++
			if _, err := sim.Collect(round, ids, global, global); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm the arenas and the GEMM pack pools
			collect()
		}
		return testing.AllocsPerRun(10, collect)
	}
	base := allocs(2, 1)
	t.Logf("a warm Collect of 2 one-minibatch clients allocates %v times", base)
	for _, c := range []struct{ k, minibatches int }{{8, 1}, {2, 4}, {8, 4}} {
		t.Run(fmt.Sprintf("k=%d/minibatches=%d", c.k, c.minibatches), func(t *testing.T) {
			if got := allocs(c.k, c.minibatches); got > base {
				t.Errorf("a warm Collect allocates %v times, %v at k=2 with 1 minibatch per client", got, base)
			}
		})
	}
}
