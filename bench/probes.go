package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Probes are direct timed loops over one layer's public functions, at the
// shapes the workloads use. They do not depend on the workload, so every
// traced run reports the same set.

const (
	probeCalls     = 10 // timed calls after one warm-up
	probeSlowCalls = 5  // for calls that take a sizeable share of a second
)

// probe returns the median seconds of one call of fn.
func probe(calls int, fn func()) float64 {
	fn()
	times := make([]float64, calls)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start).Seconds()
	}
	return median(times)
}

// probeLoop is probe for calls too short to time singly: each timed call
// runs fn inner times and the result is per single call.
func probeLoop(inner int, fn func()) float64 {
	return probe(probeCalls, func() {
		for i := 0; i < inner; i++ {
			fn()
		}
	}) / float64(inner)
}

func randVec(rng *rand.Rand, n int, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * std
	}
	return v
}

// cloud returns n vectors scattered tightly around a common centre, the
// geometry of one round's updates.
func cloud(rng *rand.Rand, n, d int) [][]float64 {
	centre := randVec(rng, d, 0.05)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = randVec(rng, d, 0.005)
		for j := range vs[i] {
			vs[i][j] += centre[j]
		}
	}
	return vs
}

func asUpdates(vs [][]float64) []fl.Update {
	us := make([]fl.Update, len(vs))
	for i, v := range vs {
		us[i] = fl.Update{ClientID: i, Weights: v, NumSamples: 32}
	}
	return us
}

func mustAggregator(name string, f int) fl.Aggregator {
	agg, err := defense.ByName(name, f)
	if err != nil {
		panic(err)
	}
	return agg
}

func aggregateMs(agg fl.Aggregator, global []float64, us []fl.Update, calls int) float64 {
	return 1e3 * probe(calls, func() {
		if _, _, err := agg.Aggregate(global, us); err != nil {
			panic(err)
		}
	})
}

// deepGemmMix is the (m, k, n) of each DeepCNN layer's im2col product at
// batch 16 on 16x16 inputs: out-channels x in-channels*9 x batch*pixels for
// the six convolutions, then the two dense layers.
var deepGemmMix = [][3]int{
	{8, 27, 4096}, {8, 72, 1024}, {16, 72, 1024}, {16, 144, 256}, {32, 144, 256}, {32, 288, 64},
	{16, 128, 64}, {16, 64, 10},
}

func runProbes(seed int64, into map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	probeTensor(rng, into)
	fashion, deep := probeNN(rng, into)
	probeVecDefense(rng, into, fashion.NumParams(), deep.NumParams())
	probeData(rng, seed, into, fashion, deep)
	probeCodec(rng, into)
}

func probeTensor(rng *rand.Rand, into map[string]float64) {
	flops := 0.0
	type operands struct{ c, a, b []float64 }
	ops := make([]operands, len(deepGemmMix))
	for i, s := range deepGemmMix {
		m, k, n := s[0], s[1], s[2]
		flops += 2 * float64(m) * float64(k) * float64(n)
		ops[i] = operands{make([]float64, m*n), randVec(rng, m*k, 1), randVec(rng, k*n, 1)}
	}
	gflops := func(kernel func(c, a, b []float64, m, k, n int, acc bool)) float64 {
		return flops / 1e9 / probe(probeCalls, func() {
			for i, s := range deepGemmMix {
				kernel(ops[i].c, ops[i].a, ops[i].b, s[0], s[1], s[2], false)
			}
		})
	}
	into["tensor.gemm_nn_gflops"] = gflops(tensor.GemmNN)
	into["tensor.gemm_tn_gflops"] = gflops(tensor.GemmTN)
	into["tensor.gemm_nt_gflops"] = gflops(tensor.GemmNT)

	const d = 10000
	a, b := randVec(rng, d, 1), randVec(rng, d, 1)
	sink := 0.0
	into["tensor.sqdist_gbs"] = 16 * d / 1e9 / probeLoop(1000, func() { sink += tensor.SqDistSlice(a, b) })
	qa, qb := make([]int8, d), make([]int8, d)
	for i := range qa {
		qa[i], qb[i] = int8(rng.Intn(255)-127), int8(rng.Intn(255)-127)
	}
	dots := make([]int64, d/tensor.Int8Block)
	into["tensor.int8_block_dots_gbs"] = 2 * float64(len(dots)*tensor.Int8Block) / 1e9 / probeLoop(1000, func() { tensor.Int8BlockDots(qa, qb, dots) })
	runtime.KeepAlive(sink)
}

func probeNN(rng *rand.Rand, into map[string]float64) (fashion, deep *nn.Network) {
	fashion = nn.NewFashionCNN(rng, 1, 16, 10)
	deep = nn.NewDeepCNN(rng, 3, 16, 10)
	fashion.SetScratch(tensor.NewPool())
	deep.SetScratch(tensor.NewPool())
	batch := func(channels, n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, channels, 16, 16)
		x.FillNormal(rng, 0, 1)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		return x, labels
	}
	opt := nn.NewSGD(0.05, 0)
	xf, lf := batch(1, 16)
	xd, ld := batch(3, 16)
	into["nn.train_batch_fashion_ms"] = 1e3 * probeLoop(20, func() { nn.TrainBatch(fashion, opt, xf, lf) })
	into["nn.train_batch_deep_ms"] = 1e3 * probeLoop(5, func() { nn.TrainBatch(deep, opt, xd, ld) })
	xe, _ := batch(3, 64)
	into["nn.forward_deep_ms"] = 1e3 * probeLoop(5, func() {
		deep.ResetScratch()
		deep.Forward(xe, false)
	})
	w := deep.WeightVector()
	into["nn.weight_vector_roundtrip_us"] = 1e6 * probeLoop(100, func() {
		if err := deep.SetWeightVector(w); err != nil {
			panic(err)
		}
		w = deep.WeightVector()
	})
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		nn.TrainBatch(deep, opt, xd, ld)
	}
	runtime.ReadMemStats(&after)
	into["nn.train_batch_allocs"] = float64(after.Mallocs-before.Mallocs) / runs
	return fashion, deep
}

func probeVecDefense(rng *rand.Rand, into map[string]float64, dFashion, dDeep int) {
	k10 := cloud(rng, 10, dDeep)
	into["vec.sqdist_matrix_k10_ms"] = 1e3 * probe(probeCalls, func() { vec.SqDistMatrix(k10) })
	into["vec.median_k10_ms"] = 1e3 * probe(probeCalls, func() { vec.Median(k10) })
	into["vec.trimmed_mean_k10_ms"] = 1e3 * probe(probeCalls, func() { vec.TrimmedMean(k10, 2) })
	global := k10[0]
	for _, name := range []string{"mkrum", "bulyan", "trmean", "median", "fedavg"} {
		into["defense."+name+"_k10_ms"] = aggregateMs(mustAggregator(name, 2), global, asUpdates(k10), probeCalls)
	}
	// The attacker sees the benign updates of a 10-client round with two
	// attackers in it.
	ctx := &fl.AttackContext{Global: global, PrevGlobal: global, BenignUpdates: k10[:8], NumAttackers: 2, NumSelected: 10, TotalClients: 100, TotalAttackers: 20, Rng: rng}
	into["attack.minmax_craft_ms"] = 1e3 * probe(probeCalls, func() {
		if _, err := (attack.MinMax{}).Craft(ctx); err != nil {
			panic(err)
		}
	})

	k100 := cloud(rng, 100, dFashion)
	into["defense.mkrum_k100_ms"] = aggregateMs(mustAggregator("mkrum", 10), k100[0], asUpdates(k100), probeCalls)
	hier := &population.Hierarchical{Groups: 10, Group: mustAggregator("mkrum", 2), Server: mustAggregator("mkrum", 2)}
	into["population.hier_aggregate_ms"] = aggregateMs(hier, k100[0], asUpdates(k100), probeCalls)

	k500 := cloud(rng, 500, 10000)
	into["vec.sqdist_matrix_k500_ms"] = 1e3 * probe(probeSlowCalls, func() { vec.SqDistMatrix(k500) })
	into["defense.mkrum_k500_dense_ms"] = aggregateMs(mustAggregator("mkrum", 100), k500[0], asUpdates(k500), probeSlowCalls)

	spec, err := codec.ParseSpec("int8,topk=0.1,ef")
	if err != nil {
		panic(err)
	}
	enc := codec.NewEncoder(spec)
	global500 := randVec(rng, 10000, 0.05)
	frames := make([]*codec.Frame, len(k500))
	framed := asUpdates(k500)
	for i := range framed {
		frames[i] = enc.Encode(i, 0, global500, k500[i])
		framed[i].Frame = frames[i]
		framed[i].Weights = frames[i].Reconstruct(global500)
	}
	into["codec.sqdist_matrix_k500_ms"] = 1e3 * probe(probeCalls, func() { codec.SqDistMatrix(frames) })
	into["defense.mkrum_k500_frames_ms"] = aggregateMs(mustAggregator("mkrum", 100), global500, framed, probeCalls)
}

func probeData(rng *rand.Rand, seed int64, into map[string]float64, fashion, deep *nn.Network) {
	var train, test *dataset.Dataset
	into["dataset.generate_cifar_ms"] = 1e3 * probe(probeSlowCalls, func() { dataset.Generate(dataset.CIFARSpec(), seed) })
	into["dataset.generate_fashion_ms"] = 1e3 * probe(probeSlowCalls, func() { train, test = dataset.Generate(dataset.FashionSpec(), seed) })
	var shards [][]int
	into["dataset.partition_dirichlet_ms"] = 1e3 * probe(probeCalls, func() {
		shards = dataset.PartitionDirichlet(rand.New(rand.NewSource(seed)), train.Labels, 100, 0.5)
	})
	shard := shards[0]
	for _, s := range shards {
		if len(s) > len(shard) {
			shard = s
		}
	}
	if len(shard) > 60 {
		shard = shard[:60]
	}
	global := fashion.WeightVector()
	client := fl.NewBenignClient(0, train, shard, nil, 0.05, 1, 16, rng)
	into["fl.train_client_ms"] = 1e3 * probe(probeCalls, func() {
		if _, err := client.TrainWith(global, fashion); err != nil {
			panic(err)
		}
	})
	evaluator := fl.NewEvaluator(test, 320)
	into["fl.evaluate_ms"] = 1e3 * probe(probeCalls, func() { evaluator.Accuracy(fashion, true) })
	sampler := fl.UniformSampler{K: 10}
	into["fl.select_us"] = 1e6 * probeLoop(100, func() { sampler.Sample(rng, 0, 100) })

	newFashion := func(r *rand.Rand) *nn.Network { return nn.NewFashionCNN(r, 1, 16, 10) }
	newDeep := func(r *rand.Rand) *nn.Network { return nn.NewDeepCNN(r, 3, 16, 10) }
	flip := &attack.LabelFlip{Data: train, Shard: shard, LR: 0.05, Epochs: 1, BatchSize: 16}
	craftMs := func(atk fl.Attack, model *nn.Network, newModel func(*rand.Rand) *nn.Network, calls int) float64 {
		w := model.WeightVector()
		ctx := &fl.AttackContext{Global: w, PrevGlobal: w, NumAttackers: 2, NumSelected: 10, TotalClients: 100, TotalAttackers: 20, NewModel: newModel, Rng: rng}
		return 1e3 * probe(calls, func() {
			if _, err := atk.Craft(ctx); err != nil {
				panic(err)
			}
		})
	}
	into["attack.labelflip_craft_ms"] = craftMs(flip, fashion, newFashion, probeCalls)
	// The DFA attacks are configured as paper_k10's cells configure them.
	dfa := func(spec dataset.Spec) core.DFAConfig {
		cfg := paperCell(seed, false, spec.Name, "dfa-r", "mkrum", 1)
		if err := cfg.Normalize(); err != nil {
			panic(err)
		}
		return dfaConfig(cfg, spec)
	}
	mustAttack := func(atk fl.Attack, err error) fl.Attack {
		if err != nil {
			panic(err)
		}
		return atk
	}
	dfar := func(c core.DFAConfig) fl.Attack { return mustAttack(core.NewDFAR(c)) }
	dfag := func(c core.DFAConfig) fl.Attack { return mustAttack(core.NewDFAG(c)) }
	into["core.dfar_craft_fashion_ms"] = craftMs(dfar(dfa(dataset.FashionSpec())), fashion, newFashion, probeCalls)
	into["core.dfag_craft_fashion_ms"] = craftMs(dfag(dfa(dataset.FashionSpec())), fashion, newFashion, probeCalls)
	into["core.dfar_craft_deep_ms"] = craftMs(dfar(dfa(dataset.CIFARSpec())), deep, newDeep, probeSlowCalls)
	into["core.dfag_craft_deep_ms"] = craftMs(dfag(dfa(dataset.CIFARSpec())), deep, newDeep, probeSlowCalls)

	ref, err := core.BalancedReference(test, 20)
	if err != nil {
		panic(err)
	}
	refd, err := core.NewREFD(ref, newFashion, 1, 2)
	if err != nil {
		panic(err)
	}
	k10 := make([][]float64, 10)
	for i := range k10 {
		k10[i] = append([]float64(nil), global...)
		for j := range k10[i] {
			k10[i][j] += rng.NormFloat64() * 0.005
		}
	}
	into["core.refd_k10_ms"] = aggregateMs(refd, global, asUpdates(k10), probeCalls)

	pop, err := population.New(population.Spec{Kind: population.Label, TotalClients: 100000, Seed: seed, Beta: 0.5, MeanShard: 32, Cache: 400}, train)
	if err != nil {
		panic(err)
	}
	cold := 0
	into["population.shard_cold_us"] = 1e6 * probeLoop(100, func() { pop.Shard(cold); cold++ })
	into["population.shard_warm_us"] = 1e6 * probeLoop(100, func() { pop.Shard(cold - 1) })
	floyd := population.FloydSampler{K: 100}
	into["population.sample_floyd_us"] = 1e6 * probeLoop(100, func() { floyd.Sample(rng, 0, 100000) })
	place := &population.Scattered{N: 100000, Frac: 0.01, Seed: seed}
	id, hits := 0, 0
	into["population.placement_lookup_ns"] = 1e9 * probeLoop(10000, func() {
		if place.IsMalicious(id % 100000) {
			hits++
		}
		id++
	})
	runtime.KeepAlive(hits)
}

func probeCodec(rng *rand.Rand, into map[string]float64) {
	spec, err := codec.ParseSpec("int8,topk=0.1,ef")
	if err != nil {
		panic(err)
	}
	const d = 10000
	global := randVec(rng, d, 0.05)
	weights := randVec(rng, d, 0.005)
	for i := range weights {
		weights[i] += global[i]
	}
	enc := codec.NewEncoder(spec)
	var frame *codec.Frame
	round := 0
	into["codec.encode_us"] = 1e6 * probeLoop(10, func() { frame = enc.Encode(0, round, global, weights); round++ })
	var wire []byte
	into["codec.encode_wire_us"] = 1e6 * probeLoop(100, func() { wire = codec.EncodeWire(frame) })
	into["codec.decode_wire_us"] = 1e6 * probeLoop(100, func() {
		if _, err := codec.DecodeWire(wire, d); err != nil {
			panic(err)
		}
	})
	into["codec.reconstruct_us"] = 1e6 * probeLoop(100, func() { frame.Reconstruct(global) })
	into["codec.wire_bytes_per_update"] = float64(len(wire))
}
