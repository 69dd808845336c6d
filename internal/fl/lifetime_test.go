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
			return &population.Hierarchical{Groups: 2, Group: &defense.MultiKrum{F: 1}, Server: &defense.MultiKrum{F: 1}}, nil
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

// staleSelection enforces fl.Aggregator's lifetime rule on the rule it
// wraps: it hands out every Selection in storage of its own, and each
// Aggregate first overwrites everything the previous one handed out —
// accepted indices and groups with −1, scores, weights and distances with
// NaN. A consumer that keeps a Selection past the wrapped rule's next
// Aggregate without copying it reads poison, whatever the wrapped rule does
// with its own scratch.
type staleSelection struct {
	fl.Aggregator
	last fl.Selection
}

func (s *staleSelection) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	for _, v := range [][]int{s.last.Accepted, s.last.Groups} {
		for i := range v {
			v[i] = -1
		}
	}
	for _, v := range append([][]float64{s.last.Scores, s.last.Weights}, s.last.Distances...) {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	out, sel, err := s.Aggregator.Aggregate(global, updates)
	s.last = cloneSelection(sel)
	return out, s.last, err
}

// cloneSelection deep-copies every slice of sel; DistanceNanos, a timing, is
// dropped so two runs' copies compare equal.
func cloneSelection(sel fl.Selection) fl.Selection {
	c := sel
	c.Accepted = slices.Clone(sel.Accepted)
	c.Weights = slices.Clone(sel.Weights)
	c.Scores = slices.Clone(sel.Scores)
	c.Groups = slices.Clone(sel.Groups)
	c.Distances = nil
	for _, row := range sel.Distances {
		c.Distances = append(c.Distances, slices.Clone(row))
	}
	c.DistanceNanos = 0
	return c
}

// selectionLog is an observer that keeps every Selection it is shown, each
// copied as the lifetime rule asks.
type selectionLog struct{ sels []fl.Selection }

func (l *selectionLog) ObserveAggregation(_ int, _ []float64, _ []fl.Update, sel fl.Selection) {
	l.sels = append(l.sels, cloneSelection(sel))
}

// TestSelectionLifetimeOneRound: a run and every Selection its observer
// keeps are bit for bit the same when each Krum-family rule — and each tier
// of hierarchical mKrum, whose group rule runs once per group — poisons its
// Selection as soon as it aggregates again. Once the engine, the
// hierarchy's composition and the observer have consumed a Selection, no
// one reads it again.
func TestSelectionLifetimeOneRound(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 9)
	shards := fl.Shards(dataset.PartitionIID(rand.New(rand.NewSource(9)), train.Len(), 12))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	byName := func(name string) fl.Aggregator {
		agg, err := defense.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	// stale wraps the rule (and the hierarchy's tiers) in staleSelection.
	rules := map[string]func(stale bool) fl.Aggregator{
		"hier-mkrum": func(stale bool) fl.Aggregator {
			if !stale {
				return &population.Hierarchical{Groups: 2, Group: byName("mkrum"), Server: byName("mkrum")}
			}
			return &staleSelection{Aggregator: &population.Hierarchical{Groups: 2,
				Group: &staleSelection{Aggregator: byName("mkrum")}, Server: &staleSelection{Aggregator: byName("mkrum")}}}
		},
	}
	for _, name := range []string{"krum", "mkrum", "bulyan"} {
		rules[name] = func(stale bool) fl.Aggregator {
			if !stale {
				return byName(name)
			}
			return &staleSelection{Aggregator: byName(name)}
		}
	}
	run := func(t *testing.T, agg fl.Aggregator, async *fl.AsyncConfig) (*fl.Result, []float64, []fl.Selection) {
		t.Helper()
		var log selectionLog
		cfg := fl.Config{
			TotalClients: 12, PerRound: 6, Rounds: 4, LocalEpochs: 1, BatchSize: 8, LR: 0.05,
			Seed: 5, Scenario: fl.Scenario{Async: async}, Observer: &log,
		}
		sim, err := fl.NewSimulation(cfg, train, test, shards, firstK(4), newModel, agg, attack.MinMax{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, sim.GlobalWeights(), log.sels
	}
	// same compares float slices bit for bit, NaN included.
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for rule, build := range rules {
		for _, async := range []*fl.AsyncConfig{nil, {Buffer: 5, MaxDelay: 2}} {
			t.Run(fmt.Sprintf("%s/async=%v", rule, async != nil), func(t *testing.T) {
				wantRes, wantW, wantSels := run(t, build(false), async)
				if wantRes.MaliciousSubmitted == 0 {
					t.Fatal("no attacker was ever selected: the attack never crafted an update")
				}
				res, w, sels := run(t, build(true), async)
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("result differs once stale selections are poisoned:\n got: %+v\nwant: %+v", res, wantRes)
				}
				if !same(w, wantW) {
					t.Error("final weights differ once stale selections are poisoned")
				}
				if len(sels) != len(wantSels) || len(sels) == 0 {
					t.Fatalf("observer kept %d selections, want %d (> 0)", len(sels), len(wantSels))
				}
				for i, sel := range sels {
					want := wantSels[i]
					ok := slices.Equal(sel.Accepted, want.Accepted) && slices.Equal(sel.Groups, want.Groups) &&
						same(sel.Scores, want.Scores) && same(sel.Weights, want.Weights) &&
						slices.EqualFunc(sel.Distances, want.Distances, same) && sel.ScoreName == want.ScoreName
					if !ok {
						t.Fatalf("observed selection %d differs once stale selections are poisoned:\n got: %+v\nwant: %+v", i, sel, want)
					}
				}
			})
		}
	}
}
