package main

import (
	"fmt"

	"repro/internal/experiment"
)

// A workload is one fixed set of inputs. In-process workloads are lists of
// cells run through experiment.Run; socket workloads are one loopback
// federation. One pass runs every cell (or the whole federation) once; a
// run repeats passes until its time budget is used.
type workload struct {
	name, why string
	// cells returns the timed cells of pass number pass (in-process
	// workloads): the same shapes every pass, fresh seeds each pass.
	cells func(seed int64, pass int, smoke bool) []experiment.Config
	// warm returns the short cells of the discarded warm-up pass.
	warm func(seed int64, smoke bool) []experiment.Config
	// verify returns cells run once after timing, for the learning check.
	verify func(seed int64, smoke bool) []experiment.Config
	// socket is set for the loopback federation workloads.
	socket *socketShape
}

// socketShape is the loopback federation of the socket workloads: N = K
// clients, a d = in*10+10 dense model, mKrum with f assumed attackers.
type socketShape struct {
	k, in, f, rounds int
	codec            string
	// finalBound bounds the relative L2 error of the final weights against
	// the federation's closed form, as a share of the distance the model
	// moved (see socketRunner.checkFinal).
	finalBound float64
}

func (s socketShape) scaled(smoke bool) socketShape {
	if smoke {
		s.k, s.in, s.f, s.rounds = 20, 99, 4, 2
		if s.codec != "" {
			// Two rounds of top-10% updates carry a fifth of the movement;
			// the bound only asks for better than not moving at all.
			s.finalBound = 0.9
		}
	}
	return s
}

// Dense sessions differ from the closed form only by summation order. The
// compressed bound is twice the largest error measured over seeds 1-10 when
// the benchmark was defined (see README).
const (
	denseFinalBound    = 1e-9
	int8topkFinalBound = 0.59
)

const (
	paperRounds      = 4
	populationRounds = 12
	socketRounds     = 10
)

var workloads = []workload{
	{
		name:   "paper_k10",
		why:    "the paper's Table II shape (N=100, K=10, 20% attackers, 17 attack x defense cells): compute-bound on client SGD and DFA synthesis",
		cells:  paperCells,
		warm:   paperWarm,
		verify: paperVerify,
	},
	{
		name:  "population_100k",
		why:   "the production regime (lazy 100k-client population, K=100, 1% scattered attackers, flat and hierarchical mKrum): many short trainings, per-client fixed costs",
		cells: populationCells,
		warm: func(seed int64, smoke bool) []experiment.Config {
			cells := populationCells(seed, 0, smoke)
			cells = []experiment.Config{cells[0], cells[len(cells)-1]}
			for i := range cells {
				cells[i].Rounds = 2
			}
			return cells
		},
	},
	{
		name:   "socket_k500_dense",
		why:    "K=500 clients, d=10k over loopback TCP with dense updates: gob transport both ways plus the dense 500x500 distance matrix",
		socket: &socketShape{k: 500, in: 999, f: 100, rounds: socketRounds, finalBound: denseFinalBound},
	},
	{
		name:   "socket_k500_int8topk",
		why:    "the same federation with int8,topk=0.1,ef uplink: compressed-domain geometry beside an unchanged dense downlink, so a gain for one direction that costs the other shows",
		socket: &socketShape{k: 500, in: 999, f: 100, rounds: socketRounds, codec: "int8,topk=0.1,ef", finalBound: int8topkFinalBound},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperCell sets only science fields: the ops fields of experiment.Config
// are about to move, and the benchmark must not depend on them.
func paperCell(seed int64, smoke bool, ds, attack, defense string, rounds int) experiment.Config {
	c := experiment.Config{
		Dataset: ds, Attack: attack, Defense: defense, Beta: 0.5, Seed: seed,
		TotalClients: 100, PerRound: 10, Rounds: rounds, EvalLimit: 320, SampleCount: 20, Parallel: true,
	}
	if attack != "none" {
		c.AttackerFrac = 0.2
	}
	if smoke {
		c.Dataset, c.TotalClients, c.PerRound, c.Rounds, c.EvalLimit, c.SampleCount = "tiny-sim", 20, 5, 2, 40, 4
	}
	return c
}

// cellSeed gives every cell of every pass its own seed. How much work a
// cell does depends on its draws (shard sizes; a round that selects no
// attacker skips the craft, 0.2 s of a cifar-sim DFA round), so cells and
// passes that shared a seed would move together and a run's total would
// swing with the seed as one cell's does; independent draws average out.
func cellSeed(seed int64, pass, cell int) int64 {
	return seed*1000 + int64(pass%10)*100 + int64(cell)
}

func paperCells(seed int64, pass int, smoke bool) []experiment.Config {
	var cells []experiment.Config
	add := func(ds, attack, defense string) {
		cells = append(cells, paperCell(cellSeed(seed, pass, len(cells)), smoke, ds, attack, defense, paperRounds))
	}
	if smoke {
		add("tiny-sim", "dfa-r", "mkrum")
		add("tiny-sim", "dfa-g", "bulyan")
		add("tiny-sim", "none", "fedavg")
		return cells
	}
	for _, def := range []string{"mkrum", "bulyan", "trmean", "median"} {
		add("fashion-sim", "dfa-r", def)
		add("fashion-sim", "dfa-g", def)
	}
	for _, def := range []string{"mkrum", "bulyan"} {
		add("cifar-sim", "dfa-r", def)
		add("cifar-sim", "dfa-g", def)
	}
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		add(ds, "minmax", "mkrum")
		add(ds, "none", "fedavg")
	}
	add("fashion-sim", "dfa-g", "refd")
	return cells
}

func paperWarm(seed int64, smoke bool) []experiment.Config {
	if smoke {
		return paperCells(seed, 0, smoke)[:1]
	}
	return []experiment.Config{
		paperCell(seed, false, "fashion-sim", "dfa-g", "mkrum", 1),
		paperCell(seed, false, "fashion-sim", "dfa-r", "refd", 1),
		paperCell(seed, false, "cifar-sim", "dfa-r", "bulyan", 1),
		paperCell(seed, false, "cifar-sim", "dfa-g", "mkrum", 1),
	}
}

// paperVerify is the one cell long enough to show that training learns: the
// timed cells stop after paperRounds rounds, before accuracy has moved far.
func paperVerify(seed int64, smoke bool) []experiment.Config {
	if smoke {
		return nil
	}
	return []experiment.Config{paperCell(seed, false, "fashion-sim", "none", "fedavg", 12)}
}

func populationCells(seed int64, pass int, smoke bool) []experiment.Config {
	var cells []experiment.Config
	for _, groups := range []int{0, 10} {
		for _, attack := range []string{"dfa-r", "minmax", "labelflip"} {
			c := experiment.Config{
				Dataset: "fashion-sim", Attack: attack, Defense: "mkrum", Beta: 0.5, Seed: cellSeed(seed, pass, len(cells)),
				TotalClients: 100000, PerRound: 100, Rounds: populationRounds, EvalLimit: 320, SampleCount: 20, Parallel: true,
				Population: "virtual", Placement: "scatter", AttackerFrac: 0.01, Groups: groups, FProxy: 10,
			}
			if groups > 0 {
				c.FProxy = 2
			}
			if smoke {
				c.Dataset, c.TotalClients, c.PerRound, c.Rounds, c.EvalLimit, c.SampleCount = "tiny-sim", 1000, 10, 2, 40, 4
				c.AttackerFrac, c.FProxy = 0.1, 2
				if groups > 0 {
					c.Groups, c.FProxy = 2, 1
				}
			}
			cells = append(cells, c)
		}
	}
	if smoke {
		return []experiment.Config{cells[0], cells[5]}
	}
	return cells
}

// cellKey names a cell shape in results and traces.
func cellKey(c experiment.Config) string {
	key := fmt.Sprintf("%s/%s/%s", c.Dataset, c.Attack, c.Defense)
	if c.Groups > 0 {
		key += fmt.Sprintf("/groups=%d", c.Groups)
	}
	return key
}
