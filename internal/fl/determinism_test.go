package fl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// runTiny executes one tiny simulation under the given parallelism settings
// and returns the Result.
func runTiny(t *testing.T, parallel bool, workers int) *Result {
	t.Helper()
	tensor.SetWorkers(workers)
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Parallel = parallel
	sim, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{reportSelection: true}, zeroAttack{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelDeterminism locks in the guarantee the parallel compute core
// is built around: an identical Config with Parallel on or off — at any
// worker-pool width — produces a bit-identical Result (accuracy timeline,
// DPR counters). Parallelism must never change the science.
func TestParallelDeterminism(t *testing.T) {
	defer tensor.SetWorkers(0)
	ref := runTiny(t, false, 1)
	if math.IsNaN(ref.FinalAccuracy) {
		t.Fatal("reference run produced no evaluation")
	}
	for _, tc := range []struct {
		name     string
		parallel bool
		workers  int
	}{
		{"parallel-2", true, 2},
		{"parallel-4", true, 4},
		{"parallel-16", true, 16},
		{"serial-wide-pool", false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runTiny(t, tc.parallel, tc.workers)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("result differs from serial reference:\n got: %+v\nwant: %+v", got, ref)
			}
		})
	}
}
