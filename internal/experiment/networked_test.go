package experiment

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fl"
)

// scriptedSampler selects round r's listed clients, in order.
type scriptedSampler [][]int

func (s scriptedSampler) Sample(_ *rand.Rand, round, _ int) []int { return s[round] }

// transportFunc is a Transport from a function.
type transportFunc func(round int, ids []int, global, prev []float64) ([]fl.Update, error)

func (f transportFunc) Collect(round int, ids []int, global, prev []float64) ([]fl.Update, error) {
	return f(round, ids, global, prev)
}

// craftLog is an aggregator that keeps each round's w(t) and crafted
// updates and moves the global to the benign mean.
type craftLog struct {
	globals [][]float64
	crafted []map[int][]float64
}

func (*craftLog) Name() string { return "craft-log" }

func (c *craftLog) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	c.globals = append(c.globals, slices.Clone(global))
	crafted := map[int][]float64{}
	next := make([]float64, len(global))
	benign := 0
	for _, u := range updates {
		if u.Malicious {
			crafted[u.ClientID] = slices.Clone(u.Weights)
			continue
		}
		benign++
		for j, w := range u.Weights {
			next[j] += w
		}
	}
	for j := range next {
		next[j] /= float64(benign)
	}
	c.crafted = append(c.crafted, crafted)
	return next, fl.Selection{}, nil
}

// TestNetworkedAttackerIsTheEngines: for every attack that runs over a
// socket, Recipe's trainer for attacker id, asked only in the rounds that
// select id, returns the bits the engine crafts for id from the same w(t)
// and w(t−1) — in a round that selects both attackers, one that selects
// only the other, and one after a round that selected neither. DFA-G's
// generator trains in every round that selects any attacker, so its
// networked attacker is exact only while it was selected in each of them
// (README, "Binaries ≡ simulator").
func TestNetworkedAttackerIsTheEngines(t *testing.T) {
	for _, name := range attackNames(t) {
		cfg := tinyCfg(name, "fedavg")
		cfg.AttackerFrac = 0.2
		if name == "none" {
			continue
		}
		rcp, err := NewRecipe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rcp.Networked() != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var attackers, benign []int
			for id := 0; id < rcp.cfg.TotalClients; id++ {
				if rcp.place.IsMalicious(id) {
					attackers = append(attackers, id)
				} else {
					benign = append(benign, id)
				}
			}
			if len(attackers) != 2 {
				t.Fatalf("placement made %d attackers, want 2", len(attackers))
			}
			a, b, x, y := attackers[0], attackers[1], benign[0], benign[1]
			schedule := scriptedSampler{{x, a, y, b}, {b, x, y}, {x, y}, {a, x, b, y}}
			atk, err := rcp.attack()
			if err != nil {
				t.Fatal(err)
			}
			log := &craftLog{}
			eng := &fl.Engine{
				TotalClients: rcp.cfg.TotalClients, Rounds: len(schedule), Seed: rcp.cfg.Seed,
				Scenario: fl.Scenario{Sampler: schedule}, Aggregator: log,
				Attack: atk, IsMalicious: rcp.place.IsMalicious, NewModel: rcp.newModel,
				AttackSamples: rcp.src.MeanShardSize(),
				Transport: transportFunc(func(round int, ids []int, global, _ []float64) ([]fl.Update, error) {
					ups := make([]fl.Update, len(ids))
					for k, id := range ids {
						w := make([]float64, len(global))
						for j := range w {
							w[j] = global[j] + 0.01*math.Sin(float64(id+j+round))
						}
						ups[k] = fl.Update{ClientID: id, Weights: w, NumSamples: 10}
					}
					return ups, nil
				}),
			}
			if _, _, err := eng.Run(rcp.newModel(rand.New(rand.NewSource(rcp.cfg.Seed))).WeightVector()); err != nil {
				t.Fatal(err)
			}
			carried := strings.HasPrefix(name, "dfa-g")
			for _, id := range attackers {
				trainer, _, err := rcp.Client(id)
				if err != nil {
					t.Fatal(err)
				}
				missed := false // a round crafted without id
				for r, sel := range schedule {
					want, selected := log.crafted[r][id]
					if !selected {
						missed = missed || len(log.crafted[r]) > 0
						continue
					}
					prev := log.globals[max(r-1, 0)]
					got, _, err := trainer.Train(r, log.globals[r], prev)
					if err != nil {
						t.Fatal(err)
					}
					if carried && missed {
						continue
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("attacker %d round %d (selection %v): networked weight %d = %v, engine %v", id, r, sel, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}
