package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/tensor"
)

// The replay walks one round of a cell through the layers' public
// functions, from outside, with the cell's real inputs: experiment.Run has
// no seam to time a phase through, so this is how much of a real cell the
// outside view can explain. Cells that share a dataset and population share
// the generated data, the sampled clients and the benign training; each
// attack is crafted once per round and each cell's defense aggregates its
// own mix.

const (
	replayWarmRounds     = 1
	replayMeasuredRounds = 5
)

// replayCell is what the replay measured for one cell shape.
type replayCell struct {
	key    string
	rounds int
	fixedS float64 // dataset generation + partition, once per cell
	roundS float64 // median replayed round
	craftS float64 // median craft call of the cell's attack
	aggS   float64 // median aggregate call of the cell's defense
	isDFA  bool
}

// replayResult pools the replay of one workload.
type replayResult struct {
	cells                    []replayCell
	shardCalls, derivations  int64
	measuredPopulationRounds int
}

func modelFactory(spec dataset.Spec) func(rng *rand.Rand) *nn.Network {
	if spec.Name == "cifar-sim" || spec.Name == "svhn-sim" {
		return func(rng *rand.Rand) *nn.Network { return nn.NewDeepCNN(rng, spec.Channels, spec.Size, spec.Classes) }
	}
	return func(rng *rand.Rand) *nn.Network { return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes) }
}

func dfaConfig(cfg experiment.Config, spec dataset.Spec) core.DFAConfig {
	return core.DFAConfig{
		Classes: spec.Classes, ImgC: spec.Channels, ImgSize: spec.Size,
		SampleCount: cfg.SampleCount, SynthesisEpochs: cfg.SynthesisEpochs,
		ClassifierLR: cfg.LR, BatchSize: cfg.BatchSize, RegLambda: 1, Trained: true,
	}
}

func replayAttack(cfg experiment.Config, spec dataset.Spec, train *dataset.Dataset, advShard []int) (fl.Attack, error) {
	switch cfg.Attack {
	case "none":
		return nil, nil
	case "minmax":
		return attack.MinMax{}, nil
	case "labelflip":
		return &attack.LabelFlip{Data: train, Shard: advShard, LR: cfg.LR, Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize}, nil
	case "dfa-r":
		return core.NewDFAR(dfaConfig(cfg, spec))
	case "dfa-g":
		return core.NewDFAG(dfaConfig(cfg, spec))
	}
	return nil, fmt.Errorf("replay: attack %q not covered", cfg.Attack)
}

func replayRule(cfg experiment.Config, name string, f int, test *dataset.Dataset, newModel func(*rand.Rand) *nn.Network) (fl.Aggregator, error) {
	if name == "refd" {
		ref, err := core.BalancedReference(test, cfg.RefPerClass)
		if err != nil {
			return nil, err
		}
		return core.NewREFD(ref, newModel, 1, cfg.RejectX)
	}
	return defense.ByName(name, f)
}

func replayDefense(cfg experiment.Config, test *dataset.Dataset, newModel func(*rand.Rand) *nn.Network) (fl.Aggregator, string, error) {
	if cfg.Groups <= 0 {
		layer := "defense"
		if cfg.Defense == "refd" {
			layer = "core"
		}
		agg, err := replayRule(cfg, cfg.Defense, cfg.FProxy, test, newModel)
		return agg, layer, err
	}
	group, err := replayRule(cfg, cfg.Defense, cfg.FProxy, test, newModel)
	if err != nil {
		return nil, "", err
	}
	serverF := max(1, min(cfg.FProxy, (cfg.Groups-1)/2))
	server, err := replayRule(cfg, cfg.Defense, serverF, test, newModel)
	if err != nil {
		return nil, "", err
	}
	return &population.Hierarchical{Groups: cfg.Groups, Group: group, Server: server}, "population", nil
}

func groupKey(c experiment.Config) string {
	return fmt.Sprintf("%s|%s|%d|%d", c.Dataset, c.Population, c.TotalClients, c.PerRound)
}

// replayWorkload replays every cell shape of an in-process workload.
func replayWorkload(tr *tracer, cells []experiment.Config, smoke bool) (*replayResult, error) {
	res := &replayResult{}
	var order []string
	groups := make(map[string][]experiment.Config)
	for _, c := range cells {
		if err := c.Normalize(); err != nil {
			return nil, err
		}
		k := groupKey(c)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		if err := replayGroup(tr, res, groups[k], smoke); err != nil {
			return nil, fmt.Errorf("replay %s: %w", k, err)
		}
	}
	return res, nil
}

func replayGroup(tr *tracer, res *replayResult, cells []experiment.Config, smoke bool) (err error) {
	cfg := cells[0]
	group := tr.open(0, "bench", "replay", groupKey(cfg), -1)
	defer tr.close(group)
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return err
	}
	var train, test *dataset.Dataset
	fixed := tr.timed(group, "dataset", "generate", cfg.Dataset, -1, func(int) { train, test = dataset.Generate(spec, cfg.Seed) })
	newModel := modelFactory(spec)

	var shards [][]int
	var pop *population.Population
	var sampler fl.ClientSampler = fl.UniformSampler{K: cfg.PerRound}
	attackers := int(float64(cfg.PerRound) * cfg.AttackerFrac)
	if cfg.Population == "virtual" {
		fixed += tr.timed(group, "population", "new", cfg.Dataset, -1, func(int) {
			pop, err = population.New(population.Spec{
				Kind: population.Label, TotalClients: cfg.TotalClients, Seed: cfg.Seed ^ 0x7054,
				Beta: cfg.Beta, MeanShard: cfg.MeanShard, Cache: max(4*cfg.PerRound, 64),
			}, train)
		})
		if err != nil {
			return err
		}
		sampler = population.FloydSampler{K: cfg.PerRound}
	} else {
		fixed += tr.timed(group, "dataset", "partition_dirichlet", cfg.Dataset, -1, func(int) {
			shards = dataset.PartitionDirichlet(rand.New(rand.NewSource(cfg.Seed^0x7054)), train.Labels, cfg.TotalClients, cfg.Beta)
		})
	}
	shardOf := func(id int) []int {
		if pop != nil {
			return pop.Shard(id)
		}
		return shards[id]
	}

	attacks := make(map[string]fl.Attack)
	aggs := make([]fl.Aggregator, len(cells))
	aggLayer := make([]string, len(cells))
	for i, c := range cells {
		if _, ok := attacks[c.Attack]; !ok {
			if attacks[c.Attack], err = replayAttack(c, spec, train, shardOf(0)); err != nil {
				return err
			}
		}
		if aggs[i], aggLayer[i], err = replayDefense(c, test, newModel); err != nil {
			return err
		}
	}

	workers := make([]*nn.Network, max(1, min(tensor.Workers(), cfg.PerRound)))
	for i := range workers {
		workers[i] = newModel(rand.New(rand.NewSource(cfg.Seed)))
		workers[i].SetScratch(tensor.NewPool())
	}
	globalModel := newModel(rand.New(rand.NewSource(cfg.Seed)))
	global := globalModel.WeightVector()
	prev := append([]float64(nil), global...)
	evaluator := fl.NewEvaluator(test, cfg.EvalLimit)
	selRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	atkRng := rand.New(rand.NewSource(cfg.Seed ^ 0x2545F4914F6CDD1D))

	measured := replayMeasuredRounds
	if smoke {
		measured = 1
	}
	collects := make([]float64, 0, measured)
	crafts := make(map[string][]float64)
	aggTimes := make([][]float64, len(cells))
	for round := 0; round < replayWarmRounds+measured; round++ {
		rt := tr
		if round < replayWarmRounds {
			rt = nil // warm-up rounds leave no spans and no samples
		}
		roundSpan := rt.open(group, "bench", "replay_round", groupKey(cfg), round)
		var ids []int
		selectD := rt.timed(roundSpan, "fl", "select", "", round, func(int) { ids = sampler.Sample(selRng, round, cfg.TotalClients) })
		benignIDs := ids[min(attackers, len(ids)):]

		updates := make([]fl.Update, len(benignIDs))
		errs := make([]error, len(benignIDs))
		derivedBefore := int64(0)
		if pop != nil {
			derivedBefore = pop.Derivations()
		}
		collectD := rt.timed(roundSpan, "fl", "collect", "", round, func(collect int) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for _, model := range workers {
				wg.Add(1)
				go func(model *nn.Network) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(benignIDs) {
							return
						}
						id := benignIDs[i]
						rt.timed(collect, "fl", "train_client", "", round, func(trainSpan int) {
							var shard []int
							if pop != nil {
								rt.timed(trainSpan, "population", "shard", "", round, func(int) { shard = pop.Shard(id) })
							} else {
								shard = shards[id]
							}
							rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919 + int64(round)))
							client := fl.NewBenignClient(id, train, shard, nil, cfg.LR, cfg.LocalEpochs, cfg.BatchSize, rng)
							updates[i], errs[i] = client.TrainWith(global, model)
						})
					}
				}(model)
			}
			wg.Wait()
		})
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		benignVecs := make([][]float64, len(updates))
		for i, u := range updates {
			benignVecs[i] = u.Weights
		}

		crafted := make(map[string][][]float64)
		craftD := make(map[string]time.Duration)
		for name, atk := range attacks {
			if atk == nil || attackers == 0 {
				continue
			}
			layer := "attack"
			if name == "dfa-r" || name == "dfa-g" {
				layer = "core"
			}
			ctx := &fl.AttackContext{
				Round: round, Global: global, PrevGlobal: prev, BenignUpdates: benignVecs,
				NumAttackers: attackers, NumSelected: len(ids), TotalClients: cfg.TotalClients,
				TotalAttackers: int(float64(cfg.TotalClients) * cfg.AttackerFrac), NewModel: newModel, Rng: atkRng,
			}
			var cerr error
			craftD[name] = rt.timed(roundSpan, layer, "craft:"+name, "", round, func(int) { crafted[name], cerr = atk.Craft(ctx) })
			if cerr != nil {
				return cerr
			}
		}

		aggD := make([]time.Duration, len(cells))
		for i, c := range cells {
			mix := append([]fl.Update(nil), updates...)
			for j, v := range crafted[c.Attack] {
				mix = append(mix, fl.Update{ClientID: ids[j], Weights: v, NumSamples: cfg.MeanShard, Malicious: true})
			}
			var aerr error
			aggD[i] = rt.timed(roundSpan, aggLayer[i], "aggregate:"+aggs[i].Name(), cellKey(c), round, func(int) { _, _, aerr = aggs[i].Aggregate(global, mix) })
			if aerr != nil {
				return aerr
			}
		}

		next, _, err := defense.FedAvg{}.Aggregate(global, updates)
		if err != nil {
			return err
		}
		prev, global = global, next
		if err := globalModel.SetWeightVector(global); err != nil {
			return err
		}
		evalD := rt.timed(roundSpan, "fl", "evaluate", "", round, func(int) { evaluator.Accuracy(globalModel, true) })
		rt.close(roundSpan)

		if rt == nil {
			continue
		}
		collects = append(collects, (selectD + collectD + evalD).Seconds())
		for name, d := range craftD {
			crafts[name] = append(crafts[name], d.Seconds())
		}
		for i, d := range aggD {
			aggTimes[i] = append(aggTimes[i], d.Seconds())
		}
		if pop != nil {
			res.shardCalls += int64(len(benignIDs))
			res.derivations += pop.Derivations() - derivedBefore
			res.measuredPopulationRounds++
		}
	}

	for i, c := range cells {
		rc := replayCell{
			key: cellKey(c), rounds: c.Rounds, fixedS: fixed.Seconds(),
			aggS:  median(aggTimes[i]),
			isDFA: c.Attack == "dfa-r" || c.Attack == "dfa-g",
		}
		if t := crafts[c.Attack]; len(t) > 0 {
			rc.craftS = median(t)
		}
		rc.roundS = median(collects) + rc.craftS + rc.aggS
		res.cells = append(res.cells, rc)
	}
	return nil
}
