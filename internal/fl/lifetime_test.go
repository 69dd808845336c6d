package fl_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
)

// staleToNaN enforces fl.Transport's lifetime rule on the transport it
// wraps: it hands out every update in storage of its own, and each Collect
// first overwrites all the values the previous one handed out with NaN. A
// consumer that keeps an update past its round without copying it reads
// NaN, whatever the wrapped transport does with its own storage. With enc
// set it hands out frames instead, as a compressed socket session does: each
// update compressed into a frame of the wrapper's, whose values and scales
// are what gets poisoned.
type staleToNaN struct {
	inner fl.Transport
	enc   *codec.Encoder
	last  [][]float64
}

func (s *staleToNaN) Collect(round int, ids []int, global, prev []float64) ([]fl.Update, error) {
	for _, v := range s.last {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	updates, err := s.inner.Collect(round, ids, global, prev)
	s.last = s.last[:0]
	for i := range updates {
		u := &updates[i]
		if s.enc != nil {
			u.Frame, u.Weights = s.enc.Encode(u.ClientID, round, global, u.Weights), nil
			s.last = append(s.last, u.Frame.Val, u.Frame.Scales)
			continue
		}
		u.Weights = slices.Clone(u.Weights)
		s.last = append(s.last, u.Weights)
	}
	return updates, err
}

// TestUpdateLifetimeOneRound: the engine and every consumer of a round's
// updates — each defense.ByName rule, REFD, hierarchical mKrum, the codec,
// an oracle attack reading the benign updates, the async buffer — finish
// a run bit for bit as they do when the transport poisons every update the
// moment its round is over. Async is the one path that keeps updates past
// their round. The codec runs twice: once encoded by the engine into the
// frames it refills every round, once encoded by the transport into frames
// it poisons (beside a data-free attack, which the engine still encodes):
// an async buffer keeping either kind of frame without copying it ends
// elsewhere.
func TestUpdateLifetimeOneRound(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 9)
	shards := fl.Shards(dataset.PartitionIID(rand.New(rand.NewSource(9)), train.Len(), 12))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	ref, err := core.BalancedReference(test, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh rule per run: FoolsGold keeps per-client history.
	rules := map[string]func() (fl.Aggregator, error){
		"refd": func() (fl.Aggregator, error) { return core.NewREFD(ref, newModel, 1, 1) },
		"hier-mkrum": func() (fl.Aggregator, error) {
			return &population.Hierarchical{Groups: 2, Group: defense.MultiKrum{F: 1}, Server: defense.MultiKrum{F: 1}}, nil
		},
	}
	for _, name := range []string{"fedavg", "median", "trmean", "krum", "mkrum", "bulyan", "foolsgold"} {
		rules[name] = func() (fl.Aggregator, error) { return defense.ByName(name, 1) }
	}
	run := func(t *testing.T, rule string, async *fl.AsyncConfig, cs codec.Spec, atk fl.Attack, wrap func(fl.Transport) fl.Transport) (*fl.Result, []float64) {
		t.Helper()
		agg, err := rules[rule]()
		if err != nil {
			t.Fatal(err)
		}
		cfg := fl.Config{
			TotalClients: 12, PerRound: 6, Rounds: 4, LocalEpochs: 1, BatchSize: 8, LR: 0.05,
			Seed: 5, Scenario: fl.Scenario{Async: async}, Codec: cs,
		}
		sim, err := fl.NewSimulation(cfg, train, test, shards, firstK(4), newModel, agg, atk)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunThrough(wrap)
		if err != nil {
			t.Fatal(err)
		}
		return res, sim.GlobalWeights()
	}
	int8topk := codec.Spec{Quant: codec.Int8, TopK: 0.1, EF: true}
	direct := func(tr fl.Transport) fl.Transport { return tr }
	cases := []struct {
		name string
		cs   codec.Spec
		atk  fl.Attack
		// poisoned wraps the transport of the run that must equal the direct one.
		poisoned func(fl.Transport) fl.Transport
	}{
		{"codec=false", codec.Spec{}, attack.MinMax{}, func(tr fl.Transport) fl.Transport { return &staleToNaN{inner: tr} }},
		{"codec=true", int8topk, attack.MinMax{}, func(tr fl.Transport) fl.Transport { return &staleToNaN{inner: tr} }},
		{"codec=wire", int8topk, attack.RandomWeights{}, func(tr fl.Transport) fl.Transport {
			return &staleToNaN{inner: tr, enc: codec.NewEncoder(int8topk)}
		}},
	}
	for rule := range rules {
		for _, async := range []*fl.AsyncConfig{nil, {Buffer: 5, MaxDelay: 2}} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/async=%v/%s", rule, async != nil, c.name), func(t *testing.T) {
					wantRes, wantW := run(t, rule, async, c.cs, c.atk, direct)
					if wantRes.MaliciousSubmitted == 0 {
						t.Fatal("no attacker was ever selected: the attack never crafted an update")
					}
					res, w := run(t, rule, async, c.cs, c.atk, c.poisoned)
					if !reflect.DeepEqual(res, wantRes) {
						t.Errorf("result differs once stale updates are poisoned:\n got: %+v\nwant: %+v", res, wantRes)
					}
					for i := range w {
						if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
							t.Fatalf("final weight %d is %x once stale updates are poisoned, want %x", i, math.Float64bits(w[i]), math.Float64bits(wantW[i]))
						}
					}
				})
			}
		}
	}
}
