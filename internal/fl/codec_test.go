package fl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// runTinyCodec executes one tiny simulation with the given update codec and
// parallelism settings.
func runTinyCodec(t *testing.T, spec codec.Spec, parallel bool, workers int) *Result {
	t.Helper()
	tensor.SetWorkers(workers)
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Parallel = parallel
	cfg.Codec = spec
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

// TestCodecRawBitIdentical locks in the lossless contract: the raw codec
// reshapes transport only, so a run with Codec raw is bit-identical to the
// same run with the codec off — the check cell the acceptance criteria pin.
func TestCodecRawBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(0)
	off := runTinyCodec(t, codec.Spec{}, false, 1)
	if math.IsNaN(off.FinalAccuracy) {
		t.Fatal("reference run produced no evaluation")
	}
	raw := runTinyCodec(t, codec.Spec{Quant: codec.Raw}, false, 1)
	if !reflect.DeepEqual(raw, off) {
		t.Fatalf("raw codec changed the result:\n got: %+v\nwant: %+v", raw, off)
	}
}

// TestCodecLossyDeterminism: a lossy codec changes the numbers (documented
// tolerance), but never the determinism — repeat runs and any worker-pool
// width produce bit-identical results, because stochastic rounding draws
// from per-(client,round) streams, not from shared state.
func TestCodecLossyDeterminism(t *testing.T) {
	defer tensor.SetWorkers(0)
	spec := codec.Spec{Quant: codec.Int8, TopK: 0.25, EF: true}
	ref := runTinyCodec(t, spec, false, 1)
	if math.IsNaN(ref.FinalAccuracy) {
		t.Fatal("reference run produced no evaluation")
	}
	for _, tc := range []struct {
		name     string
		parallel bool
		workers  int
	}{
		{"repeat-serial", false, 1},
		{"parallel-4", true, 4},
		{"parallel-16", true, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runTinyCodec(t, spec, tc.parallel, tc.workers)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("lossy codec run not deterministic:\n got: %+v\nwant: %+v", got, ref)
			}
		})
	}
}

// TestCodecConfigValidate: simulation construction rejects malformed codec
// specs instead of failing rounds in.
func TestCodecConfigValidate(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Codec = codec.Spec{Quant: codec.Raw, EF: true} // EF needs a lossy codec
	if _, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{}, zeroAttack{}); err == nil {
		t.Fatal("expected codec validation error")
	}
}
