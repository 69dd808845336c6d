// Package experiment wires datasets, models, attacks and defenses into the
// named experimental configurations of the paper's evaluation (Section IV
// and V). It owns the mapping from human-readable names ("fashion-sim",
// "dfa-r", "bulyan") to concrete components — NewModel, NewAttack and
// NewDefense, which the simulator and the networked binaries share — caches
// the clean "no attack, no defense" accuracy baselines the ASR metric needs,
// and runs grids of configurations concurrently for the benchmark harness.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"repro/internal/attack"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/nn"
	"repro/internal/population"
)

// Config describes one simulation run. Zero fields are filled with the
// paper's defaults (scaled to the pure-Go simulator) by Normalize. The
// normalized Config is the run's identity: the run store keys a cell by the
// JSON of every field (runKey), so a field added later re-keys the store by
// itself.
type Config struct {
	// Dataset names the task: fashion-sim, cifar-sim, svhn-sim, tiny-sim.
	Dataset string
	// Attack names the adversary: none, random, labelflip, lie, fang,
	// minmax, minsum, dfa-r, dfa-g, dfa-r-static, dfa-g-static, real-data.
	Attack string
	// Defense names the aggregation rule: fedavg, median, trmean, krum,
	// mkrum, bulyan, refd.
	Defense string
	// Beta is the Dirichlet heterogeneity parameter; <= 0 means i.i.d.
	Beta float64
	// AttackerFrac is the fraction of malicious clients (paper: 0.2).
	AttackerFrac float64
	// Seed drives every random component of the run.
	Seed int64

	// TotalClients, PerRound, Rounds, LocalEpochs, BatchSize, LR and
	// EvalLimit configure the federation (see fl.Config).
	TotalClients int
	PerRound     int
	Rounds       int
	LocalEpochs  int
	BatchSize    int
	LR           float64
	EvalLimit    int

	// TrainN and TestN override the dataset spec sizes when positive.
	TrainN, TestN int

	// SampleCount is |S| for the DFA family and the real-data attack.
	SampleCount int
	// SynthesisEpochs is E for the DFA family (paper: 5 for Fashion-MNIST,
	// 10 for CIFAR/SVHN).
	SynthesisEpochs int
	// NoReg disables the distance-based regularization (Table IV ablation).
	NoReg bool
	// PerturbStd adds per-attacker Gaussian noise to the DFA updates, the
	// Section III-A trick for evading Sybil defenses like FoolsGold.
	PerturbStd float64

	// FProxy is the server's assumed per-round attacker count used to
	// parameterize the robust defenses (paper setting: 2 of 10).
	FProxy int
	// RefPerClass sizes REFD's balanced reference set.
	RefPerClass int
	// RejectX is REFD's per-round rejection count (paper: 2).
	RejectX int

	// Parallel trains the selected clients of a round concurrently.
	Parallel bool

	// Partition selects the shard assignment protocol: "" or "label" (the
	// paper's Dirichlet label skew when Beta > 0, i.i.d. otherwise) or
	// "quantity" (Dirichlet shard-size skew, requires Beta > 0).
	Partition string
	// Sampler selects per-round participation: "" or "uniform" (K of N,
	// the paper's shape), "bernoulli" (each client independently with
	// probability SampleRate) or "weighted" (K of N, probability
	// proportional to shard size).
	Sampler string
	// SampleRate is the Bernoulli participation probability (0 = K/N).
	SampleRate float64
	// DropoutProb and StragglerProb simulate cross-device churn: each
	// selected client is unavailable (never trains) or misses the round
	// deadline (trains, update discarded) with these probabilities.
	DropoutProb   float64
	StragglerProb float64
	// ServerOpt post-processes the aggregate: "" or "plain" (the paper's
	// behaviour), "lr" (server learning rate ServerLR) or "fedavgm"
	// (server momentum with rate ServerLR and decay ServerMomentum).
	ServerOpt string
	// ServerLR is the server learning rate (0 = 1 for lr/fedavgm).
	ServerLR float64
	// ServerMomentum is FedAvgM's velocity decay (0 = 0.9).
	ServerMomentum float64
	// AsyncBuffer > 0 enables FedBuff-style buffered async aggregation
	// with buffer size B; AsyncMaxDelay bounds the simulated arrival delay
	// in rounds (0 = 2 when async).
	AsyncBuffer   int
	AsyncMaxDelay int

	// Population selects the client source the round driver trains over:
	// "" or "eager" (fl.Shards, every shard materialized up front) or
	// "virtual" (internal/population's lazy O(active)-memory population, the
	// only source that scales TotalClients to 10⁶). Same driver either way.
	Population string
	// MeanShard is the virtual population's expected per-client shard size
	// in samples (0 = 32; virtual only).
	MeanShard int
	// PopCache bounds the virtual population's LRU shard-materialization
	// cache in shards (0 = max(4×PerRound, 64)). Pure cache: never changes
	// results, only memory.
	PopCache int
	// Placement assigns the malicious client IDs on either backend: "" or
	// "first" (the first ⌊frac·N⌋ IDs), "scatter" (seeded hash spread
	// through the ID space — the production model, exact at 0.1%/0.01%
	// fractions), "sybil" (one contiguous burst-join block) or "sizecorr"
	// (probability proportional to shard size). Non-default placements
	// require the virtual population.
	Placement string
	// Groups > 0 switches to hierarchical two-tier aggregation: Groups
	// group aggregators each apply the group rule to their clients' updates
	// and the server applies Defense to the group results. Composes with
	// both population backends.
	Groups int
	// GroupDefense names the per-group tier-1 rule ("" = Defense).
	GroupDefense string

	// Forensics enables the per-round defense-decision audit pipeline and
	// streaming detection metrics (internal/forensics). It never changes
	// DPR/ASR, accuracies or any RNG stream, but it decides whether the
	// outcome carries Detection, so it identifies the run like every other
	// field; where the audit is written and how the run is served while it
	// executes is a Watch, which no Config ever holds.
	Forensics bool

	// Codec names the update-compression quantizer: "" or "none"
	// (uncompressed — bit-identical to the pre-codec pipeline), "raw"
	// (lossless transport reshaping, still bit-identical), "fp16" (half-
	// precision deltas) or "int8" (block-scaled stochastic 8-bit deltas).
	Codec string
	// TopK keeps only the ⌈TopK·d⌉ largest-magnitude delta coordinates
	// per update, in (0,1); 0 means dense. Requires Codec.
	TopK float64
	// ErrorFeedback carries each round's quantization/sparsification
	// residual into the client's next update. Requires a lossy Codec.
	ErrorFeedback bool
}

// codecSpec maps the config's compression axes onto the codec package's
// spec; zero-valued axes produce the disabled spec.
func (c Config) codecSpec() codec.Spec {
	var kind codec.Kind
	switch c.Codec {
	case "raw":
		kind = codec.Raw
	case "fp16":
		kind = codec.FP16
	case "int8":
		kind = codec.Int8
	default:
		return codec.Spec{}
	}
	return codec.Spec{Quant: kind, TopK: c.TopK, EF: c.ErrorFeedback}
}

// Normalize fills defaults in place and validates the names.
func (c *Config) Normalize() error {
	// NaN passes every range comparison below and ±Inf some of them: refuse
	// both up front, for every float field, added later ones included.
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return fmt.Errorf("experiment: %s %v is not a finite number", v.Type().Field(i).Name, f.Float())
		}
	}
	if c.Dataset == "" {
		c.Dataset = "fashion-sim"
	}
	spec, err := dataset.SpecByName(c.Dataset)
	if err != nil {
		return err
	}
	c.Dataset = spec.Name
	if c.Attack == "" {
		c.Attack = "none"
	}
	if c.Defense == "" {
		c.Defense = "fedavg"
	}
	if c.AttackerFrac == 0 && c.Attack != "none" {
		c.AttackerFrac = 0.2
	}
	if c.AttackerFrac < 0 || c.AttackerFrac > 0.5 {
		// The threat model caps attackers at 50% of clients.
		return fmt.Errorf("experiment: AttackerFrac %v outside [0, 0.5]", c.AttackerFrac)
	}
	if c.TotalClients == 0 {
		c.TotalClients = 100
	}
	if c.PerRound == 0 {
		c.PerRound = 10
	}
	if c.Rounds == 0 {
		c.Rounds = 15
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.EvalLimit == 0 {
		c.EvalLimit = 500
	}
	if c.SampleCount == 0 {
		c.SampleCount = 50
	}
	if c.SynthesisEpochs == 0 {
		if c.Dataset == "fashion-sim" || c.Dataset == "tiny-sim" {
			c.SynthesisEpochs = 5
		} else {
			c.SynthesisEpochs = 10
		}
	}
	if c.FProxy == 0 {
		c.FProxy = 2
	}
	if c.RefPerClass == 0 {
		c.RefPerClass = 20
	}
	if c.RejectX == 0 {
		c.RejectX = 2
	}
	switch c.Partition {
	case "", "label":
		c.Partition = ""
	case "quantity":
	default:
		return fmt.Errorf("experiment: unknown partition %q (known: label, quantity)", c.Partition)
	}
	if c.Partition == "quantity" && c.Beta <= 0 {
		return fmt.Errorf("experiment: quantity partition requires Beta > 0")
	}
	switch c.Sampler {
	case "", "uniform":
		c.Sampler = ""
	case "bernoulli", "weighted":
	default:
		return fmt.Errorf("experiment: unknown sampler %q (known: uniform, bernoulli, weighted)", c.Sampler)
	}
	if c.Sampler == "bernoulli" && c.SampleRate == 0 {
		c.SampleRate = float64(c.PerRound) / float64(c.TotalClients)
	}
	if c.DropoutProb < 0 || c.StragglerProb < 0 || c.DropoutProb+c.StragglerProb > 1 {
		return fmt.Errorf("experiment: churn probabilities (%g, %g) invalid", c.DropoutProb, c.StragglerProb)
	}
	switch c.ServerOpt {
	case "", "plain":
		c.ServerOpt = ""
	case "lr", "fedavgm":
	default:
		return fmt.Errorf("experiment: unknown server optimizer %q (known: plain, lr, fedavgm)", c.ServerOpt)
	}
	if c.ServerOpt != "" && c.ServerLR == 0 {
		c.ServerLR = 1
	}
	if c.ServerOpt == "fedavgm" && c.ServerMomentum == 0 {
		c.ServerMomentum = 0.9
	}
	if c.AsyncBuffer < 0 || c.AsyncMaxDelay < 0 {
		return fmt.Errorf("experiment: async parameters (%d, %d) must be non-negative", c.AsyncBuffer, c.AsyncMaxDelay)
	}
	if c.AsyncBuffer > 0 && c.AsyncMaxDelay == 0 {
		c.AsyncMaxDelay = 2
	}
	switch c.Population {
	case "", "eager":
		c.Population = ""
	case "virtual":
	default:
		return fmt.Errorf("experiment: unknown population %q (known: eager, virtual)", c.Population)
	}
	if c.Population == "virtual" {
		if c.MeanShard == 0 {
			c.MeanShard = 32
		}
		if c.Sampler == "weighted" {
			// Weighted selection holds one weight per client — O(N) state
			// the virtual population exists to avoid.
			return fmt.Errorf("experiment: weighted sampler requires the eager population")
		}
	} else if c.MeanShard != 0 || c.PopCache != 0 {
		return fmt.Errorf("experiment: MeanShard/PopCache require Population=virtual")
	}
	if c.MeanShard < 0 || c.PopCache < 0 {
		return fmt.Errorf("experiment: population parameters (%d, %d) must be non-negative", c.MeanShard, c.PopCache)
	}
	switch c.Placement {
	case "", "first":
		c.Placement = ""
	case "scatter", "sybil", "sizecorr":
		if c.Population != "virtual" {
			return fmt.Errorf("experiment: placement %q requires Population=virtual", c.Placement)
		}
	default:
		return fmt.Errorf("experiment: unknown placement %q (known: first, scatter, sybil, sizecorr)", c.Placement)
	}
	if c.Groups < 0 {
		return fmt.Errorf("experiment: Groups %d must be non-negative", c.Groups)
	}
	if c.GroupDefense != "" && c.Groups == 0 {
		return fmt.Errorf("experiment: GroupDefense requires Groups > 0")
	}
	switch c.Codec {
	case "", "none":
		c.Codec = ""
	case "raw", "fp16", "int8":
	default:
		return fmt.Errorf("experiment: unknown codec %q (known: none, raw, fp16, int8)", c.Codec)
	}
	if c.Codec == "" && (c.TopK != 0 || c.ErrorFeedback) {
		return fmt.Errorf("experiment: TopK/ErrorFeedback require Codec")
	}
	if err := c.codecSpec().Validate(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// cleanOf projects a cell onto its clean baseline, the paper's acc: the same
// federation with no attack, flat no-defense FedAvg and no audit. It clears
// the attack, the defense, their topology and the parameters only they read,
// then normalizes; every other field — any added later included — survives,
// so it splits baselines by default instead of aliasing them.
func cleanOf(cfg Config) (Config, error) {
	c := cfg
	c.Attack, c.Defense, c.AttackerFrac, c.Placement = "none", "fedavg", 0, ""
	c.Groups, c.GroupDefense, c.Forensics = 0, "", false
	c.SampleCount, c.SynthesisEpochs, c.NoReg, c.PerturbStd = 0, 0, false, 0
	c.FProxy, c.RefPerClass, c.RejectX = 0, 0, 0
	return c, c.Normalize()
}

// Outcome reports one run together with its clean baseline and the paper's
// two metrics.
type Outcome struct {
	// Config is the normalized configuration that produced this outcome.
	Config Config
	// CleanAcc is the paper's acc: the no-attack/no-defense accuracy for
	// the same dataset, heterogeneity and seed, in [0, 1].
	CleanAcc float64
	// MaxAcc is acc_m, the best accuracy reached under attack, in [0, 1].
	MaxAcc float64
	// FinalAcc is the accuracy after the last round.
	FinalAcc float64
	// ASR is the attack success rate of Eq. 4, in percent.
	ASR float64
	// DPR is the defense pass rate of Eq. 5 in percent; NaN when the
	// defense does not select ("N/A" in the paper).
	DPR float64
	// AccTimeline holds per-round accuracies (NaN where not evaluated).
	// Under seed averaging it is the element-wise mean across seeds.
	AccTimeline []float64
	// SynthesisLoss holds the DFA per-round per-epoch synthesis losses
	// (Fig. 7); nil for other attacks. Under seed averaging it is the
	// first seed's trace: the loss curves are per-run diagnostics.
	SynthesisLoss [][]float64
	// Trace holds the engine's per-round participation record (selected,
	// dropped, straggled, responded, aggregations). Under seed averaging it
	// is the first seed's trace, like SynthesisLoss.
	Trace []fl.RoundStats
	// Detection is the forensics subsystem's cumulative detection-quality
	// summary (TPR/FPR/F1, AUC, TPR@1%FPR); nil when the run did not enable
	// forensics or was replayed from a forensics-off store entry. Under
	// seed averaging it is the first seed's summary, like SynthesisLoss.
	Detection *forensics.Summary
}

// task is the resolved dataset, client source (the eager shard table or a
// lazy virtual population) and model factory of a config.
type task struct {
	train    *dataset.Dataset
	test     *dataset.Dataset
	src      fl.ClientSource
	newModel func(rng *rand.Rand) *nn.Network
}

func buildTask(cfg Config) (*task, error) {
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	if cfg.TrainN > 0 {
		spec.TrainN = cfg.TrainN
	}
	if cfg.TestN > 0 {
		spec.TestN = cfg.TestN
	}
	train, test := dataset.Generate(spec, cfg.Seed)
	tk := &task{train: train, test: test, newModel: NewModel(spec)}
	if cfg.Population == "virtual" {
		kind := population.IID
		switch {
		case cfg.Partition == "quantity":
			kind = population.Quantity
		case cfg.Beta > 0:
			kind = population.Label
		}
		cache := cfg.PopCache
		if cache == 0 {
			cache = 4 * cfg.PerRound
			if cache < 64 {
				cache = 64
			}
		}
		pop, err := population.New(population.Spec{
			Kind:         kind,
			TotalClients: cfg.TotalClients,
			Seed:         cfg.Seed ^ 0x7054,
			Beta:         cfg.Beta,
			MeanShard:    cfg.MeanShard,
			Cache:        cache,
		}, train)
		if err != nil {
			return nil, err
		}
		tk.src = pop
	} else {
		prng := rand.New(rand.NewSource(cfg.Seed ^ 0x7054))
		switch {
		case cfg.Partition == "quantity":
			tk.src = fl.Shards(dataset.PartitionQuantity(prng, train.Len(), cfg.TotalClients, cfg.Beta))
		case cfg.Beta > 0:
			tk.src = fl.Shards(dataset.PartitionDirichlet(prng, train.Labels, cfg.TotalClients, cfg.Beta))
		default:
			tk.src = fl.Shards(dataset.PartitionIID(prng, train.Len(), cfg.TotalClients))
		}
	}
	return tk, nil
}

// NewModel returns the model factory of a dataset: the paper's deep CNN for
// the CIFAR-10 and SVHN stand-ins, its Fashion-MNIST CNN otherwise.
func NewModel(spec dataset.Spec) func(rng *rand.Rand) *nn.Network {
	switch spec.Name {
	case "cifar-sim", "svhn-sim":
		return func(rng *rand.Rand) *nn.Network {
			return nn.NewDeepCNN(rng, spec.Channels, spec.Size, spec.Classes)
		}
	default:
		return func(rng *rand.Rand) *nn.Network {
			return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
		}
	}
}

// lossTracer is implemented by the DFA attacks to expose Fig. 7 data.
type lossTracer interface {
	LossTrace() [][]float64
}

// NewAttack builds the adversary a normalized cfg names, or nil for "none".
// train and shard are the data the data-holding attacks (labelflip,
// real-data) train on; the data-free ones never read them.
func NewAttack(cfg Config, train *dataset.Dataset, shard []int) (fl.Attack, error) {
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	dfaCfg := core.DFAConfig{
		Classes:         spec.Classes,
		ImgC:            spec.Channels,
		ImgSize:         spec.Size,
		SampleCount:     cfg.SampleCount,
		SynthesisEpochs: cfg.SynthesisEpochs,
		ClassifierLR:    cfg.LR,
		BatchSize:       cfg.BatchSize,
		RegLambda:       1,
		Trained:         true,
		PerturbStd:      cfg.PerturbStd,
	}
	if cfg.NoReg {
		dfaCfg.RegLambda = 0
	}
	switch cfg.Attack {
	case "none":
		return nil, nil
	case "random":
		return attack.RandomWeights{}, nil
	case "freerider":
		return attack.FreeRider{NoiseStd: 1e-3}, nil
	case "signflip":
		return attack.SignFlip{}, nil
	case "lie":
		return attack.LIE{}, nil
	case "fang":
		return attack.Fang{}, nil
	case "minmax":
		return attack.MinMax{}, nil
	case "minsum":
		return attack.MinSum{}, nil
	case "labelflip":
		return &attack.LabelFlip{
			Data:      train,
			Shard:     shard,
			LR:        cfg.LR,
			Epochs:    cfg.LocalEpochs,
			BatchSize: cfg.BatchSize,
		}, nil
	case "dfa-r":
		return core.NewDFAR(dfaCfg)
	case "dfa-g":
		return core.NewDFAG(dfaCfg)
	case "dfa-r-static":
		dfaCfg.Trained = false
		return core.NewDFAR(dfaCfg)
	case "dfa-g-static":
		dfaCfg.Trained = false
		return core.NewDFAG(dfaCfg)
	case "real-data":
		return core.NewRealData(dfaCfg, train, shard)
	default:
		return nil, fmt.Errorf("experiment: unknown attack %q", cfg.Attack)
	}
}

// buildRule resolves one aggregation rule by name with the given assumed
// attacker count f; REFD draws its reference set from test.
func buildRule(cfg Config, test *dataset.Dataset, newModel func(rng *rand.Rand) *nn.Network, name string, f int) (fl.Aggregator, error) {
	switch name {
	case "refd":
		ref, err := core.BalancedReference(test, cfg.RefPerClass)
		if err != nil {
			return nil, err
		}
		return core.NewREFD(ref, newModel, 1, cfg.RejectX)
	case "refd-adaptive":
		ref, err := core.BalancedReference(test, cfg.RefPerClass)
		if err != nil {
			return nil, err
		}
		return core.NewAdaptiveREFD(ref, newModel, cfg.RejectX, 0.25, 4)
	default:
		return defense.ByName(name, f)
	}
}

// NewDefense builds the aggregation topology a normalized cfg names: the
// flat rule, or — with Groups > 0 — the hierarchical two-tier composition
// of the group rule (GroupDefense, defaulting to Defense, with the full
// FProxy) under a server tier running Defense with its assumed attacker
// count clamped to a minority of the Groups aggregates. test is the held-out
// set REFD draws its balanced reference from.
func NewDefense(cfg Config, test *dataset.Dataset) (fl.Aggregator, error) {
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	newModel := NewModel(spec)
	if cfg.Groups <= 0 {
		return buildRule(cfg, test, newModel, cfg.Defense, cfg.FProxy)
	}
	groupName := cfg.GroupDefense
	if groupName == "" {
		groupName = cfg.Defense
	}
	group, err := buildRule(cfg, test, newModel, groupName, cfg.FProxy)
	if err != nil {
		return nil, err
	}
	serverF := cfg.FProxy
	if m := (cfg.Groups - 1) / 2; serverF > m {
		serverF = m
	}
	if serverF < 1 {
		serverF = 1
	}
	server, err := buildRule(cfg, test, newModel, cfg.Defense, serverF)
	if err != nil {
		return nil, err
	}
	return &population.Hierarchical{Groups: cfg.Groups, Group: group, Server: server}, nil
}

// BuildScenario maps a normalized config's participation/aggregation axes
// onto the engine's pluggable layers; it is the single flags-to-engine
// mapping shared by the simulator path and cmd/flserver. Defaults map to
// the zero-value Scenario. src supplies the per-client weights of the
// "weighted" sampler and may be nil otherwise.
func BuildScenario(cfg Config, src fl.ClientSource) fl.Scenario {
	var sc fl.Scenario
	switch cfg.Sampler {
	case "bernoulli":
		sc.Sampler = fl.BernoulliSampler{P: cfg.SampleRate}
	case "weighted":
		weights := make([]float64, src.Len())
		for i := range weights {
			weights[i] = float64(len(src.Shard(i)))
		}
		sc.Sampler = fl.WeightedSampler{K: cfg.PerRound, Weights: weights}
	}
	if cfg.DropoutProb > 0 || cfg.StragglerProb > 0 {
		sc.Participation = fl.RandomChurn{DropoutProb: cfg.DropoutProb, StragglerProb: cfg.StragglerProb}
	}
	switch cfg.ServerOpt {
	case "lr":
		sc.ServerOpt = fl.ServerLRApply{Eta: cfg.ServerLR}
	case "fedavgm":
		// Stateful (velocity buffer): a fresh instance per run.
		sc.ServerOpt = fl.NewFedAvgM(cfg.ServerLR, cfg.ServerMomentum)
	}
	if cfg.AsyncBuffer > 0 {
		sc.Async = &fl.AsyncConfig{Buffer: cfg.AsyncBuffer, MaxDelay: cfg.AsyncMaxDelay}
	}
	return sc
}

// Run executes a single configuration, unwatched and without clean-baseline
// bookkeeping; most callers want Runner.Run, which also fills CleanAcc and
// ASR.
func Run(cfg Config) (*Outcome, error) { return run(cfg, nil) }

// run is Run observed through p (see Runner.Watch for the watched entry):
// the run's engine instruments land on the plane's registry and tracer, and
// its decision audit — when the config or the watch asks for one — is
// journaled and served by the plane. A nil plane changes no result bit.
func run(cfg Config, p *Plane) (*Outcome, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	tk, err := buildTask(cfg)
	if err != nil {
		return nil, err
	}
	// The data-holding attacks train on client 0's shard: a representative
	// client-sized sample with the benign users' assignment, independently
	// of which IDs the placement model actually compromises.
	atk, err := NewAttack(cfg, tk.train, tk.src.Shard(0))
	if err != nil {
		return nil, err
	}
	agg, err := NewDefense(cfg, tk.test)
	if err != nil {
		return nil, err
	}
	var col *forensics.Collector
	if cfg.Forensics || p.auditsRuns() {
		col, err = p.Collector("", forensics.Options{
			Defense: agg.Name(),
			// A forensics-private seed derivation: the collector consumes no
			// engine RNG stream, so results stay bit-identical to
			// forensics-off runs.
			Seed: cfg.Seed ^ 0x464F52,
		})
		if err != nil {
			return nil, err
		}
	}
	flCfg := fl.Config{
		TotalClients: cfg.TotalClients,
		PerRound:     cfg.PerRound,
		Rounds:       cfg.Rounds,
		LocalEpochs:  cfg.LocalEpochs,
		BatchSize:    cfg.BatchSize,
		LR:           cfg.LR,
		Seed:         cfg.Seed,
		EvalLimit:    cfg.EvalLimit,
		Parallel:     cfg.Parallel,
		Scenario:     BuildScenario(cfg, tk.src),
		Codec:        cfg.codecSpec(),
		Telemetry:    p.Engine(""),
	}
	if col != nil {
		flCfg.Observer = col
	}
	pop, _ := tk.src.(*population.Population)
	if pop != nil && flCfg.Scenario.Sampler == nil {
		// The engine's default, fl.UniformSampler, permutes all N IDs per
		// round: 8 MB at N = 10⁶, the O(N) cost the virtual backend avoids.
		flCfg.Scenario.Sampler = population.FloydSampler{K: cfg.PerRound}
	}
	var place fl.Placement
	if atk != nil {
		place, err = population.PlacementByName(cfg.Placement, cfg.TotalClients,
			cfg.AttackerFrac, cfg.Seed^0x506C61, pop)
		if err != nil {
			return nil, err
		}
	}
	sim, err := fl.NewSimulation(flCfg, tk.train, tk.test, tk.src, place, tk.newModel, agg, atk)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Config:   cfg,
		CleanAcc: math.NaN(),
		MaxAcc:   res.MaxAccuracy,
		FinalAcc: res.FinalAccuracy,
		ASR:      math.NaN(),
		DPR:      res.DPR(),
	}
	for _, rs := range res.Rounds {
		out.AccTimeline = append(out.AccTimeline, rs.Accuracy)
	}
	out.Trace = res.Rounds
	if tracer, ok := atk.(lossTracer); ok {
		out.SynthesisLoss = tracer.LossTrace()
	}
	if col != nil {
		s := col.Summary()
		out.Detection = &s
		// The audit is complete when the run is, and a lost audit line is lost
		// evidence: surface it as the run's error rather than shipping a
		// silently incomplete journal.
		if err := col.Close(); err != nil {
			return nil, fmt.Errorf("experiment: forensics audit: %w", err)
		}
	}
	return out, nil
}
