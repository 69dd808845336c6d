package population

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func tinySimParts(t testing.TB, n int) (*dataset.Dataset, *dataset.Dataset, *Population, func(*rand.Rand) *nn.Network) {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 1)
	pop, err := New(Spec{Kind: Label, TotalClients: n, Seed: 2, Beta: 0.5, MeanShard: 12, Cache: 64}, train)
	if err != nil {
		t.Fatal(err)
	}
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	return train, test, pop, newModel
}

// popCfg is a driver config with the O(K) sampler experiment.Run sets on
// virtual-population runs.
func popCfg(n, perRound, rounds int) fl.Config {
	return fl.Config{
		Scenario:     fl.Scenario{Sampler: FloydSampler{K: perRound}},
		TotalClients: n,
		PerRound:     perRound,
		Rounds:       rounds,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         1,
		EvalLimit:    40,
	}
}

// TestSimulationDeterministic pins that two identically seeded
// population-backed runs produce identical results (the per-(client, round)
// training streams make results independent of scheduling), and that
// serial and parallel execution agree.
func TestSimulationDeterministic(t *testing.T) {
	run := func(parallel bool) *fl.Result {
		train, test, pop, newModel := tinySimParts(t, 5000)
		cfg := popCfg(5000, 6, 3)
		cfg.Parallel = parallel
		place, err := PlacementByName("scatter", 5000, 0.2, 7, pop)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := fl.NewSimulation(cfg, train, test, pop, place, newModel, &defense.MultiKrum{F: 2}, attackStub{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(false), run(false), run(true)
	for _, other := range []*fl.Result{b, c} {
		if a.MaxAccuracy != other.MaxAccuracy || a.FinalAccuracy != other.FinalAccuracy {
			t.Fatalf("runs diverge: %v/%v vs %v/%v",
				a.MaxAccuracy, a.FinalAccuracy, other.MaxAccuracy, other.FinalAccuracy)
		}
		if a.MaliciousSubmitted != other.MaliciousSubmitted {
			t.Fatalf("attacker accounting diverges: %d vs %d", a.MaliciousSubmitted, other.MaliciousSubmitted)
		}
	}
	if math.IsNaN(a.FinalAccuracy) {
		t.Fatal("final accuracy is NaN")
	}
}

// lastAggregate keeps a copy of the weights its rule aggregated to last.
type lastAggregate struct {
	fl.Aggregator
	out []float64
}

func (l *lastAggregate) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	out, sel, err := l.Aggregator.Aggregate(global, updates)
	l.out = append(l.out[:0], out...)
	return out, sel, err
}

// attackStub crafts constant malicious vectors (cheap, deterministic).
type attackStub struct{}

func (attackStub) Name() string { return "stub" }

func (attackStub) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		v := make([]float64, len(ctx.Global))
		for j := range v {
			v[j] = ctx.Global[j] + 0.5
		}
		out[i] = v
	}
	return out, nil
}

// TestSimulationValidation pins the population-facing constructor errors
// (fl's own TestNewSimulationErrors covers the source-agnostic ones).
func TestSimulationValidation(t *testing.T) {
	train, test, pop, newModel := tinySimParts(t, 100)
	bad := popCfg(50, 5, 2)
	if _, err := fl.NewSimulation(bad, train, test, pop, nil, newModel, defense.FedAvg{}, nil); err == nil {
		t.Fatal("population size mismatch should fail")
	}
	bad = popCfg(100, 5, 2)
	bad.Scenario.Sampler = FloydSampler{}
	if _, err := fl.NewSimulation(bad, train, test, pop, nil, newModel, defense.FedAvg{}, nil); err == nil {
		t.Fatal("a floyd sampler with K = 0 should fail")
	}
}

// TestLazyEqualsEagerDriver is the differential oracle "virtual population ≡
// eager on the same shards": the single round driver over the lazy
// *Population and over fl.Shards(pop.materializeAll()) must aggregate to
// bit-identical weights and end on equal Results, at 1 and 2 workers, sync and
// async, under a sample-count-weighted rule (FedAvg, so AttackSamples
// matters) and a selecting one (mKrum).
func TestLazyEqualsEagerDriver(t *testing.T) {
	defer tensor.SetWorkers(0)
	const n, k, rounds = 300, 8, 4
	run := func(t *testing.T, eager bool, agg fl.Aggregator, async *fl.AsyncConfig) (*fl.Result, []float64) {
		t.Helper()
		train, test, pop, newModel := tinySimParts(t, n)
		place, err := PlacementByName("scatter", n, 0.2, 7, pop)
		if err != nil {
			t.Fatal(err)
		}
		var src fl.ClientSource = pop
		if eager {
			src = fl.Shards(pop.materializeAll())
		}
		cfg := popCfg(n, k, rounds)
		cfg.Parallel = true
		cfg.Scenario.Async = async
		last := &lastAggregate{Aggregator: agg}
		sim, err := fl.NewSimulation(cfg, train, test, src, place, newModel, last, attackStub{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, last.out
	}
	for _, workers := range []int{1, 2} {
		for _, agg := range []fl.Aggregator{defense.FedAvg{}, &defense.MultiKrum{F: 2}} {
			for _, async := range []*fl.AsyncConfig{nil, {Buffer: 5, MaxDelay: 2}} {
				tensor.SetWorkers(workers)
				lazyRes, lazyW := run(t, false, agg, async)
				eagerRes, eagerW := run(t, true, agg, async)
				name := agg.Name()
				if !reflect.DeepEqual(lazyRes, eagerRes) {
					t.Errorf("%s workers=%d async=%v: results differ:\n lazy: %+v\neager: %+v", name, workers, async != nil, lazyRes, eagerRes)
				}
				if lazyRes.MaliciousSubmitted == 0 {
					t.Errorf("%s workers=%d async=%v: no attacker ever selected, the attacked path is untested", name, workers, async != nil)
				}
				for i := range lazyW {
					if math.Float64bits(lazyW[i]) != math.Float64bits(eagerW[i]) {
						t.Errorf("%s workers=%d async=%v: final weight %d differs: %v vs %v", name, workers, async != nil, i, lazyW[i], eagerW[i])
						break
					}
				}
			}
		}
	}
}
