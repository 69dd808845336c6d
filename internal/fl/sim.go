package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config holds the simulation parameters of Section IV-A.
type Config struct {
	// TotalClients is N, the population size (paper: 100).
	TotalClients int
	// PerRound is K, the number of clients selected each round (paper: 10).
	PerRound int
	// Rounds is R, the number of global training rounds.
	Rounds int
	// LocalEpochs is the number of local epochs per round (paper: 1).
	LocalEpochs int
	// BatchSize is the local minibatch size.
	BatchSize int
	// LR is the global uniform learning rate η.
	LR float64
	// Seed drives all simulation randomness.
	Seed int64
	// EvalLimit caps the number of test samples per evaluation (0 = all).
	EvalLimit int
	// Parallel trains the selected clients concurrently.
	Parallel bool
	// Scenario selects the participation and aggregation axes (client
	// sampler, churn model, server optimizer, sync/async). The zero value
	// reproduces the paper's fixed federation shape bit-exactly.
	Scenario Scenario
	// Observer, when non-nil, receives every aggregation decision — the
	// forensics audit hook. Pure observation: it never changes results.
	Observer AggregationObserver
	// Codec, when enabled, compresses every client update before
	// aggregation (see Engine.Codec). The zero value reproduces the
	// uncompressed path bit-exactly.
	Codec codec.Spec
	// Telemetry, when non-nil, receives per-round/per-phase spans and codec
	// byte counts (see Engine.Telemetry). Pure observation: a fixed-seed
	// run is bit-identical with it enabled or nil.
	Telemetry *telemetry.EngineTelemetry
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.TotalClients <= 0:
		return errors.New("fl: TotalClients must be positive")
	case c.PerRound <= 0 || c.PerRound > c.TotalClients:
		return fmt.Errorf("fl: PerRound %d out of range (1..%d)", c.PerRound, c.TotalClients)
	case c.Rounds <= 0:
		return errors.New("fl: Rounds must be positive")
	case c.LocalEpochs <= 0:
		return errors.New("fl: LocalEpochs must be positive")
	case c.BatchSize <= 0:
		return errors.New("fl: BatchSize must be positive")
	case c.LR <= 0:
		return errors.New("fl: LR must be positive")
	}
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	return c.Scenario.Validate()
}

// ClientSource answers "which samples does client id hold" for the round
// driver. Two implementations exist: Shards, the eager table behind the
// paper's N = 100 federation, and *population.Population, which derives a
// shard on demand so a million enrolled clients cost O(active) memory.
type ClientSource interface {
	// Len returns N, the number of clients.
	Len() int
	// Shard returns client id's training-sample indices. The slice is
	// shared: callers must treat it as read-only.
	Shard(id int) []int
	// MeanShardSize returns the mean shard size, the plausible sample count
	// crafted updates report.
	MeanShardSize() int
}

// Shards is the eager ClientSource: one materialized index slice per client
// (see dataset.PartitionDirichlet).
type Shards [][]int

// Len implements ClientSource.
func (s Shards) Len() int { return len(s) }

// Shard implements ClientSource.
func (s Shards) Shard(id int) []int { return s[id] }

// MeanShardSize implements ClientSource.
func (s Shards) MeanShardSize() int {
	if len(s) == 0 {
		return 0
	}
	total := 0
	for _, shard := range s {
		total += len(shard)
	}
	return total / len(s)
}

// Placement decides which client IDs the adversary controls, in O(1) per
// query and without O(N) flag storage (see internal/population's models).
type Placement interface {
	// IsMalicious reports whether client id is adversary-controlled.
	IsMalicious(id int) bool
	// Total returns the total number of adversary-controlled clients.
	Total() int
}

// Simulation is the in-process round driver: it wires a dataset, a client
// source, a model architecture, an aggregation rule and optionally an
// attack into the shared round engine, and serves as the engine's Transport.
// It holds no per-client state, so memory is O(PerRound) participants plus
// whatever the source caches — never O(TotalClients).
//
// Client training runs on a bounded worker pool. Each worker is a
// BenignClient that owns a model replica with its scratch arena, an RNG,
// the shuffle order and the minibatch, and is re-targeted at every client
// it trains; each selection slot owns one update vector. All of it is
// reused across clients and rounds, so a warm Collect allocates nothing per
// client. A client's result depends only on the global weights and its
// (seed, round, id) training stream, never on which worker trains it, so
// Parallel changes wall-clock only — see TestParallelDeterminism.
type Simulation struct {
	cfg        Config
	train      *dataset.Dataset
	src        ClientSource
	place      Placement
	newModel   func(rng *rand.Rand) *nn.Network
	aggregator Aggregator
	attack     Attack

	global  *nn.Network
	workers []*BenignClient
	eval    *Evaluator

	// slots holds one update vector per selection slot; updates and errs
	// are Collect's result storage. Valid until the next Collect.
	slots   [][]float64
	updates []Update
	errs    []error
}

// NewSimulation constructs a simulation over src's cfg.TotalClients clients.
// attack may be nil for a clean run, and place may be nil exactly then: the
// placement is the authoritative attacker assignment of an attacked run.
func NewSimulation(cfg Config, train, test *dataset.Dataset, src ClientSource, place Placement,
	newModel func(rng *rand.Rand) *nn.Network, agg Aggregator, attack Attack) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("fl: simulation requires a client source")
	}
	if src.Len() != cfg.TotalClients {
		return nil, fmt.Errorf("fl: client source holds %d clients, config TotalClients is %d", src.Len(), cfg.TotalClients)
	}
	if agg == nil {
		return nil, errors.New("fl: aggregator must not be nil")
	}
	if attack != nil && place == nil {
		return nil, errors.New("fl: an attacked run requires a placement")
	}
	return &Simulation{
		cfg:        cfg,
		train:      train,
		src:        src,
		place:      place,
		newModel:   newModel,
		aggregator: agg,
		attack:     attack,
		global:     newModel(rand.New(rand.NewSource(cfg.Seed))),
		eval:       NewEvaluator(test, cfg.EvalLimit),
	}, nil
}

// ensureWorkers grows the training worker pool to n reusable clients, each
// with its own model replica and scratch arena. The replica weights are
// fully overwritten and the RNG re-seeded at the start of every client's
// training, so the constructor randomness is irrelevant.
func (s *Simulation) ensureWorkers(n int) {
	for len(s.workers) < n {
		m := s.newModel(rand.New(rand.NewSource(s.cfg.Seed)))
		s.workers = append(s.workers, NewBenignClient(0, s.train, nil, m,
			s.cfg.LR, s.cfg.LocalEpochs, s.cfg.BatchSize, rand.New(rand.NewSource(0))))
	}
}

// Run executes the configured number of rounds on the shared round engine
// and returns the result.
func (s *Simulation) Run() (*Result, error) { return s.run(s) }

// run is Run with the engine collecting through tr, the simulation itself
// or a test's wrapper around it.
func (s *Simulation) run(tr Transport) (*Result, error) {
	eng := &Engine{
		TotalClients: s.cfg.TotalClients,
		PerRound:     s.cfg.PerRound,
		Rounds:       s.cfg.Rounds,
		Seed:         s.cfg.Seed,
		Scenario:     s.cfg.Scenario,
		Transport:    tr,
		Aggregator:   s.aggregator,
		Attack:       s.attack,
		NewModel:     s.newModel,
		Observer:     s.cfg.Observer,
		Codec:        s.cfg.Codec,
		Telemetry:    s.cfg.Telemetry,
		// Attackers report a plausible sample count (the mean shard size) so
		// weighted aggregation cannot trivially expose them.
		AttackSamples: s.src.MeanShardSize(),
		Evaluate: func(weights []float64) (float64, error) {
			if err := s.global.SetWeightVector(weights); err != nil {
				return 0, err
			}
			return s.eval.Accuracy(s.global, s.cfg.Parallel), nil
		},
	}
	if s.attack != nil {
		eng.IsMalicious = s.place.IsMalicious
		eng.TotalAttackers = s.place.Total()
	}
	res, final, err := eng.Run(s.global.WeightVector())
	if err != nil {
		return nil, err
	}
	if err := s.global.SetWeightVector(final); err != nil {
		return nil, err
	}
	return res, nil
}

// Mix64 is the SplitMix64 finalizer over two mixed words: a cheap,
// high-quality hash from (seed, client) to an RNG seed. The population
// package derives its per-client shard streams from the same function.
func Mix64(a, b uint64) int64 {
	x := a ^ (b+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1) // rand.NewSource ignores sign; keep it non-negative for readability
}

// trainClient trains client id for one round on one worker model. The
// client's training randomness is a pure function of (seed, round, id) —
// persistent per-client RNGs cannot exist for a million clients — so results
// are independent of which clients earlier rounds touched, of shard
// materialization and of scheduling order. The 0x7 tag keeps the stream
// disjoint from the population's per-client shard-derivation streams.
// worker is re-targeted at the client and writes the weights into dst.
func (s *Simulation) trainClient(round, id int, global, dst []float64, worker *BenignClient) (Update, error) {
	worker.retarget(id, s.src.Shard(id), Mix64(uint64(s.cfg.Seed)^uint64(round)*0x9E3779B97F4A7C15, uint64(id)<<8|0x7))
	return worker.trainInto(dst, global, worker.model)
}

// Collect implements Transport: it trains the selected benign clients on
// the bounded worker pool. At most tensor.Workers() goroutines run, each
// owning one reused worker client, and tensor.Drain starts a worker
// whenever a slot is free while clients remain — so the slot the round's
// craft (see Engine.collectAttacked) gives back joins the queue. Every
// update lands in its selection slot's vector, whichever worker trained it;
// the vectors are the simulation's and valid until the next Collect.
func (s *Simulation) Collect(round int, ids []int, global, _ []float64) ([]Update, error) {
	workers := 1
	if s.cfg.Parallel {
		workers = min(tensor.Workers(), len(ids))
	}
	s.ensureWorkers(workers)
	for len(s.slots) < len(ids) {
		s.slots = append(s.slots, make([]float64, len(global)))
	}
	updates := slices.Grow(s.updates[:0], len(ids))[:len(ids)]
	errs := slices.Grow(s.errs[:0], len(ids))[:len(ids)]
	s.updates, s.errs = updates, errs
	tensor.Drain(workers, len(ids), func(w, i int) {
		updates[i], errs[i] = s.trainClient(round, ids[i], global, s.slots[i], s.workers[w])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return updates, nil
}
