package fl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func tinySetup(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Dataset, Shards, func(*rand.Rand) *nn.Network) {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, seed)
	rng := rand.New(rand.NewSource(seed))
	shards := Shards(dataset.PartitionIID(rng, train.Len(), 12))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	return train, test, shards, newModel
}

// firstK is the tests' placement: clients 0..k−1 are malicious (attacked
// runs over the 12-client setup use firstK(3), 25 %).
type firstK int

func (k firstK) IsMalicious(id int) bool { return id < int(k) }
func (k firstK) Total() int              { return int(k) }

func tinyConfig() Config {
	return Config{
		TotalClients: 12,
		PerRound:     4,
		Rounds:       6,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         1,
	}
}

// meanAggregator is a minimal test double implementing Aggregator with
// selection reporting.
type meanAggregator struct{ reportSelection bool }

func (meanAggregator) Name() string { return "mean" }

func (m meanAggregator) Aggregate(global []float64, updates []Update) ([]float64, Selection, error) {
	out := make([]float64, len(global))
	for _, u := range updates {
		for i, w := range u.Vector(global) {
			out[i] += w
		}
	}
	for i := range out {
		out[i] /= float64(len(updates))
	}
	if !m.reportSelection {
		return out, Selection{}, nil
	}
	return out, selectAll(len(updates)), nil
}

// zeroAttack submits all-zero weight vectors (maximally destructive under
// plain averaging, trivially detectable by robust rules).
type zeroAttack struct{}

func (zeroAttack) Name() string { return "zero" }

func (zeroAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		out[i] = make([]float64, len(ctx.Global))
	}
	return out, nil
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TotalClients = 0 },
		func(c *Config) { c.PerRound = 0 },
		func(c *Config) { c.PerRound = 99 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LR = 0 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestNewSimulationErrors(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 3)
	cfg := tinyConfig()
	if _, err := NewSimulation(cfg, train, test, shards[:3], nil, newModel, meanAggregator{}, nil); err == nil {
		t.Fatal("expected error for shard count mismatch")
	}
	if _, err := NewSimulation(cfg, train, test, nil, nil, newModel, meanAggregator{}, nil); err == nil {
		t.Fatal("expected error for nil client source")
	}
	if _, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, zeroAttack{}); err == nil {
		t.Fatal("expected error for an attack without a placement")
	}
	if _, err := NewSimulation(cfg, train, test, shards, nil, newModel, nil, nil); err == nil {
		t.Fatal("expected error for nil aggregator")
	}
	badCfg := cfg
	badCfg.Rounds = 0
	if _, err := NewSimulation(badCfg, train, test, shards, nil, newModel, meanAggregator{}, nil); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestCleanRunLearns(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 3)
	cfg := tinyConfig()
	cfg.Rounds = 10
	sim, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccuracy < 0.5 {
		t.Fatalf("clean federation should learn: max accuracy %.3f", res.MaxAccuracy)
	}
	if len(res.Rounds) != 10 {
		t.Fatalf("got %d round stats, want 10", len(res.Rounds))
	}
	if res.DPRKnown {
		t.Fatal("no-selection aggregator should leave DPRKnown false")
	}
	if !math.IsNaN(res.DPR()) {
		t.Fatal("DPR should be NaN without selection reporting")
	}
}

func TestAttackDegradesUndefendedRun(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 4)
	cfg := tinyConfig()
	cfg.Rounds = 10

	clean, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	attacked, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{}, zeroAttack{})
	if err != nil {
		t.Fatal(err)
	}
	attackedRes, err := attacked.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attackedRes.MaxAccuracy >= cleanRes.MaxAccuracy {
		t.Fatalf("zero attack under plain averaging should reduce accuracy: clean %.3f, attacked %.3f",
			cleanRes.MaxAccuracy, attackedRes.MaxAccuracy)
	}
	if attackedRes.MaliciousSubmitted == 0 {
		t.Fatal("no malicious updates recorded")
	}
}

func TestDPRAccounting(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 5)
	cfg := tinyConfig()
	sim, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{reportSelection: true}, zeroAttack{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.DPRKnown {
		t.Fatal("selection-reporting aggregator should set DPRKnown")
	}
	// The test aggregator selects everything, so DPR must be exactly 100%.
	if res.MaliciousSubmitted > 0 && res.DPR() != 100 {
		t.Fatalf("DPR = %v, want 100", res.DPR())
	}
	for _, rs := range res.Rounds {
		if rs.PassedMalicious != rs.SelectedMalicious {
			t.Fatalf("round %d: passed %d != selected %d under select-all aggregator",
				rs.Round, rs.PassedMalicious, rs.SelectedMalicious)
		}
	}
}

func TestDeterminismAndParallelEquivalence(t *testing.T) {
	run := func(parallel bool) *Result {
		train, test, shards, newModel := tinySetup(t, 6)
		cfg := tinyConfig()
		cfg.Parallel = parallel
		sim, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{}, zeroAttack{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(false)
	b := run(false)
	c := run(true)
	if a.MaxAccuracy != b.MaxAccuracy || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatal("same seed should reproduce identical results")
	}
	// Client work is independent, so parallel scheduling must not change
	// the outcome either.
	if a.MaxAccuracy != c.MaxAccuracy || a.FinalAccuracy != c.FinalAccuracy {
		t.Fatal("parallel execution changed the result")
	}
}

func TestASRFormula(t *testing.T) {
	if got := ASR(80, 40); got != 50 {
		t.Fatalf("ASR(80,40) = %v, want 50", got)
	}
	if got := ASR(50, 50); got != 0 {
		t.Fatalf("ASR(50,50) = %v, want 0", got)
	}
	if got := ASR(0, 10); got != 0 {
		t.Fatalf("ASR with zero clean accuracy = %v, want 0", got)
	}
	// Negative ASR is possible when the attacked run beats the baseline.
	if got := ASR(50, 55); got != -10 {
		t.Fatalf("ASR(50,55) = %v, want -10", got)
	}
}

func TestEvaluateBounds(t *testing.T) {
	_, test, _, newModel := tinySetup(t, 7)
	model := newModel(rand.New(rand.NewSource(1)))
	accSeq := NewEvaluator(test, 0).Accuracy(model, false)
	accPar := NewEvaluator(test, 0).Accuracy(model, true)
	if accSeq < 0 || accSeq > 1 {
		t.Fatalf("accuracy %v out of range", accSeq)
	}
	if accSeq != accPar {
		t.Fatalf("parallel evaluation %v != sequential %v", accPar, accSeq)
	}
	accLim := NewEvaluator(test, 10).Accuracy(model, false)
	if accLim < 0 || accLim > 1 {
		t.Fatalf("limited accuracy %v out of range", accLim)
	}
	if got := NewEvaluator(test.Subset(nil), 0).Accuracy(model, false); got != 0 {
		t.Fatalf("empty dataset accuracy = %v, want 0", got)
	}
}

func TestBenignClientTrains(t *testing.T) {
	train, _, shards, newModel := tinySetup(t, 8)
	rng := rand.New(rand.NewSource(2))
	model := newModel(rng)
	global := model.WeightVector()
	c := NewBenignClient(0, train, shards[0], model, 0.05, 1, 8, rng)
	if c.id != 0 || len(c.shard) != len(shards[0]) {
		t.Fatalf("client id %d with %d samples, want 0 with %d", c.id, len(c.shard), len(shards[0]))
	}
	u, err := c.TrainWith(global, model)
	if err != nil {
		t.Fatal(err)
	}
	if u.Malicious {
		t.Fatal("benign update flagged malicious")
	}
	changed := false
	for i := range u.Weights {
		if u.Weights[i] != global[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("training produced identical weights")
	}
	// Wrong-length global must error.
	if _, err := c.TrainWith(global[:10], model); err == nil {
		t.Fatal("expected error for truncated global vector")
	}
}

// TestScoreRanks pins the average-rank transform: ties share their average
// rank, and a NaN score, which equals nothing, is a group of its own, so
// the transform terminates on it.
func TestScoreRanks(t *testing.T) {
	got := ScoreRanks([]float64{0.3, 0.1, 0.3, 0.9})
	if want := []float64{2.5 / 4, 1.0 / 4, 2.5 / 4, 4.0 / 4}; !slices.Equal(got, want) {
		t.Fatalf("ScoreRanks = %v, want %v", got, want)
	}
	got = ScoreRanks([]float64{0.3, math.NaN(), 0.1})
	for i, r := range got {
		if !(r > 0 && r <= 1) {
			t.Fatalf("rank %d of a NaN-holding round is %v, want (0, 1]", i, r)
		}
	}
}

// selectAll returns a Selection accepting all n updates.
func selectAll(n int) Selection {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Selection{Accepted: idx}
}
