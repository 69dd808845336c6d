package fl_test

// An external test package: the real attacks live in core and attack,
// which import fl.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// firstK marks clients 0..k−1 malicious.
type firstK int

func (k firstK) IsMalicious(id int) bool { return id < int(k) }
func (k firstK) Total() int              { return int(k) }

// TestCraftBesideCollectBitIdentical pins the claim the overlapped round
// rests on: where the craft runs — beside Collect on a helper slot (2 and 8
// workers, for the attacks that read no benign update), or after it on the
// engine goroutine (1 worker, and always for minmax, an oracle) — and how
// wide Collect trains change no bit of the final weights or of the Result.
func TestCraftBesideCollectBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(0)
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 7)
	shards := fl.Shards(dataset.PartitionIID(rand.New(rand.NewSource(7)), train.Len(), 12))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	dfa := core.DFAConfig{
		Classes: spec.Classes, ImgC: spec.Channels, ImgSize: spec.Size,
		SampleCount: 4, SynthesisEpochs: 2, BatchSize: 8, RegLambda: 1, Trained: true,
	}
	// A fresh attack per run: the DFA attacks carry state across rounds.
	attacks := map[string]func() (fl.Attack, error){
		"dfa-r": func() (fl.Attack, error) { return core.NewDFAR(dfa) },
		"dfa-g": func() (fl.Attack, error) { return core.NewDFAG(dfa) },
		"labelflip": func() (fl.Attack, error) {
			return &attack.LabelFlip{Data: train, Shard: shards[0], LR: 0.05, Epochs: 1, BatchSize: 8}, nil
		},
		"minmax": func() (fl.Attack, error) { return attack.MinMax{}, nil },
	}
	run := func(t *testing.T, name string, async *fl.AsyncConfig, cs codec.Spec, workers int, parallel bool) (*fl.Result, []float64) {
		t.Helper()
		tensor.SetWorkers(workers)
		atk, err := attacks[name]()
		if err != nil {
			t.Fatal(err)
		}
		agg, err := defense.ByName("mkrum", 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fl.Config{
			TotalClients: 12, PerRound: 6, Rounds: 4, LocalEpochs: 1, BatchSize: 8, LR: 0.05,
			Seed: 3, Parallel: parallel, Scenario: fl.Scenario{Async: async}, Codec: cs,
		}
		sim, err := fl.NewSimulation(cfg, train, test, shards, firstK(4), newModel, agg, atk)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, sim.GlobalWeights()
	}
	for name := range attacks {
		for _, async := range []*fl.AsyncConfig{nil, {Buffer: 5, MaxDelay: 2}} {
			for _, cs := range []codec.Spec{{}, {Quant: codec.Int8, TopK: 0.25, EF: true}} {
				t.Run(fmt.Sprintf("%s/async=%v/codec=%v", name, async != nil, cs.Enabled()), func(t *testing.T) {
					wantRes, wantW := run(t, name, async, cs, 1, false)
					if wantRes.MaliciousSubmitted == 0 {
						t.Fatal("no attacker was ever selected: the run never crafted")
					}
					for _, workers := range []int{1, 2, 8} {
						for _, parallel := range []bool{false, true} {
							res, w := run(t, name, async, cs, workers, parallel)
							if !reflect.DeepEqual(res, wantRes) {
								t.Errorf("workers=%d parallel=%v: result differs from the serial reference:\n got: %+v\nwant: %+v", workers, parallel, res, wantRes)
							}
							for i := range w {
								if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
									t.Errorf("workers=%d parallel=%v: final weight %d is %x, want %x", workers, parallel, i, math.Float64bits(w[i]), math.Float64bits(wantW[i]))
									break
								}
							}
						}
					}
				})
			}
		}
	}
}
