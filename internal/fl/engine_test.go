package fl

// Engine scenario tests: the pluggable participation axes (samplers, churn,
// server optimizers, async buffering) must be deterministic, correctly
// traced in RoundStats, and must leave the global model untouched on
// zero-responder rounds. Legacy-shape bit-compatibility is covered by
// TestParallelDeterminism.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// runScenario executes one tiny simulation under the given scenario.
func runScenario(t *testing.T, sc Scenario) *Result {
	t.Helper()
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Scenario = sc
	sim, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{reportSelection: true}, zeroAttack{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestUniformSamplerMatchesLegacyStream pins the bit-compatibility
// guarantee the refactor rests on: the default sampler consumes the
// selection RNG exactly like the pre-engine `selRng.Perm(N)[:K]` loop.
func TestUniformSamplerMatchesLegacyStream(t *testing.T) {
	const seed, total, k, rounds = 3, 17, 5, 8
	legacy := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	engine := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	s := UniformSampler{K: k}
	for r := 0; r < rounds; r++ {
		want := legacy.Perm(total)[:k]
		got := s.Sample(engine, r, total)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sampler %v, legacy %v", r, got, want)
		}
	}
}

func TestWeightedSamplerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := WeightedSampler{K: 6, Weights: []float64{100, 0, 1, 1, 50, 3, 0, 2, 8, 4}}
	ids := s.Sample(rng, 0, 10)
	if len(ids) != 6 {
		t.Fatalf("selected %d, want 6", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 10 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("id %d selected twice", id)
		}
		seen[id] = true
	}
	// Sampling is without replacement even when all remaining weight is 0.
	zero := WeightedSampler{K: 3, Weights: make([]float64, 5)}
	ids = zero.Sample(rand.New(rand.NewSource(1)), 0, 5)
	if len(ids) != 3 {
		t.Fatalf("zero-weight fallback selected %d, want 3", len(ids))
	}
}

func TestServerOptimizers(t *testing.T) {
	global := []float64{1, 2}
	agg := []float64{3, 0}
	if got := (PlainApply{}).Apply(global, agg); &got[0] != &agg[0] {
		t.Fatal("PlainApply must return the aggregate slice unchanged")
	}
	got := ServerLRApply{Eta: 0.5}.Apply(global, agg)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("ServerLRApply = %v, want [2 1]", got)
	}
	m := NewFedAvgM(1, 0.5)
	first := m.Apply(global, agg) // v = [2 -2], w = [3 0]
	if first[0] != 3 || first[1] != 0 {
		t.Fatalf("FedAvgM first step = %v, want [3 0]", first)
	}
	second := m.Apply(first, []float64{3, 0}) // pseudo-grad 0, v decays to [1 -1]
	if second[0] != 4 || second[1] != -1 {
		t.Fatalf("FedAvgM must carry momentum: got %v, want [4 -1]", second)
	}
}

// TestChurnScenarioDeterministicTrace runs Bernoulli sampling + churn +
// FedAvgM twice and checks the participation trace is non-trivial,
// internally consistent, and bit-identical across runs.
func TestChurnScenarioDeterministicTrace(t *testing.T) {
	sc := Scenario{
		Sampler:       BernoulliSampler{P: 0.5},
		Participation: RandomChurn{DropoutProb: 0.3, StragglerProb: 0.2},
		ServerOpt:     NewFedAvgM(1, 0.9),
	}
	a := runScenario(t, sc)
	sc.ServerOpt = NewFedAvgM(1, 0.9) // fresh velocity for the second run
	b := runScenario(t, sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed should reproduce the trace:\n a: %+v\n b: %+v", a, b)
	}
	if math.IsNaN(a.FinalAccuracy) {
		t.Fatal("final accuracy must be evaluated")
	}
	var lost, varied int
	for _, rs := range a.Rounds {
		if rs.Dropped+rs.Straggled > 0 {
			lost++
		}
		if rs.Selected != tinyConfig().PerRound {
			varied++
		}
		if rs.Responded != rs.Selected-rs.Dropped-rs.Straggled {
			t.Fatalf("round %d: responded %d != selected %d - dropped %d - straggled %d",
				rs.Round, rs.Responded, rs.Selected, rs.Dropped, rs.Straggled)
		}
	}
	if lost == 0 {
		t.Fatal("churn model never dropped or straggled a client")
	}
	if varied == 0 {
		t.Fatal("bernoulli sampler never varied the selection size")
	}
}

// TestZeroResponderRoundsLeaveGlobalUnchanged drives every selection into
// dropout: the engine must record the empty rounds and never move the
// global model.
func TestZeroResponderRoundsLeaveGlobalUnchanged(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Scenario = Scenario{Participation: RandomChurn{DropoutProb: 1}}
	sim, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.GlobalWeights()
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	after := sim.GlobalWeights()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("zero-responder rounds must not move the global model")
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	for _, rs := range res.Rounds {
		if rs.Responded != 0 || rs.Aggregations != 0 {
			t.Fatalf("round %d: responded %d aggregations %d, want 0/0", rs.Round, rs.Responded, rs.Aggregations)
		}
		if rs.Dropped != rs.Selected {
			t.Fatalf("round %d: dropped %d != selected %d", rs.Round, rs.Dropped, rs.Selected)
		}
	}
	if math.IsNaN(res.FinalAccuracy) {
		t.Fatal("empty rounds are still evaluated")
	}
}

// TestAsyncBufferedAggregation checks the FedBuff-style mode: updates
// arrive with simulated delays, aggregations fire on buffer fills (plus the
// final partial flush), the DPR accounting still works, and the run is
// deterministic.
func TestAsyncBufferedAggregation(t *testing.T) {
	sc := Scenario{Async: &AsyncConfig{Buffer: 6, MaxDelay: 2}}
	a := runScenario(t, sc)
	b := runScenario(t, sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("async mode must be deterministic under a fixed seed")
	}
	if math.IsNaN(a.FinalAccuracy) {
		t.Fatal("final accuracy must be evaluated")
	}
	totalAggs, totalResponded := 0, 0
	for _, rs := range a.Rounds {
		totalAggs += rs.Aggregations
		totalResponded += rs.Responded
	}
	if totalAggs == 0 {
		t.Fatal("async run never aggregated")
	}
	// Every dispatched update is delivered by the horizon clamp, so the
	// flush count must cover all responders: full buffers plus one final
	// partial flush at most.
	minAggs := totalResponded / 6
	if rem := totalResponded % 6; rem > 0 {
		minAggs++
	}
	if totalAggs != minAggs {
		t.Fatalf("aggregations %d, want %d for %d responders with buffer 6", totalAggs, minAggs, totalResponded)
	}
	if !a.DPRKnown || a.MaliciousSubmitted == 0 {
		t.Fatal("async mode must keep the DPR accounting")
	}
	if a.DPR() != 100 {
		t.Fatalf("select-all aggregator DPR = %v, want 100", a.DPR())
	}
}

// TestAsyncLearns sanity-checks that staleness discounting still lets a
// clean async federation learn.
func TestAsyncLearns(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 3)
	cfg := tinyConfig()
	cfg.Rounds = 10
	cfg.Scenario = Scenario{Async: &AsyncConfig{Buffer: 4, MaxDelay: 1}}
	sim, err := NewSimulation(cfg, train, test, shards, nil, newModel, meanAggregator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccuracy < 0.5 {
		t.Fatalf("async clean federation should learn: max accuracy %.3f", res.MaxAccuracy)
	}
}

// TestAsyncResumeRejected pins the engine's guard: async in-flight state is
// not checkpointable, so resuming mid-run must fail loudly.
func TestAsyncResumeRejected(t *testing.T) {
	eng := &Engine{
		TotalClients: 4,
		PerRound:     2,
		Rounds:       3,
		StartRound:   1,
		Scenario:     Scenario{Async: &AsyncConfig{Buffer: 2}},
		Transport:    transportFunc(func(int, []int, []float64, []float64) ([]Update, error) { return nil, nil }),
		Aggregator:   meanAggregator{},
	}
	if _, _, err := eng.Run([]float64{0}); err == nil {
		t.Fatal("async resume must be rejected")
	}
}

// TestEngineAttackRequiresPredicate: an engine attack with no IsMalicious
// predicate is a typed configuration error, not a nil call mid-round.
func TestEngineAttackRequiresPredicate(t *testing.T) {
	eng := &Engine{
		TotalClients: 4,
		PerRound:     2,
		Rounds:       1,
		Transport:    transportFunc(func(int, []int, []float64, []float64) ([]Update, error) { return nil, nil }),
		Aggregator:   meanAggregator{},
		Attack:       zeroAttack{},
	}
	if _, _, err := eng.Run([]float64{0}); err == nil {
		t.Fatal("attack without IsMalicious must be rejected")
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(round int, ids []int, global, prev []float64) ([]Update, error)

func (f transportFunc) Collect(round int, ids []int, global, prev []float64) ([]Update, error) {
	return f(round, ids, global, prev)
}

// TestScenarioValidateNonFinite: NaN passes every < and > comparison, so
// each validator must reject a NaN (and an infinite) parameter on its own.
func TestScenarioValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for i, sc := range []Scenario{
		{Sampler: BernoulliSampler{P: nan}},
		{Sampler: WeightedSampler{K: 2, Weights: []float64{1, inf}}},
		{Participation: RandomChurn{DropoutProb: nan}},
		{Participation: RandomChurn{StragglerProb: nan}},
		{ServerOpt: ServerLRApply{Eta: nan}},
		{ServerOpt: ServerLRApply{Eta: inf}},
		{ServerOpt: NewFedAvgM(nan, 0.9)},
		{ServerOpt: NewFedAvgM(inf, 0.9)},
		{ServerOpt: NewFedAvgM(1, nan)},
	} {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %d should fail validation", i)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{Sampler: UniformSampler{K: 0}},
		{Sampler: BernoulliSampler{P: 0}},
		{Sampler: BernoulliSampler{P: 1.5}},
		{Sampler: WeightedSampler{K: 0}},
		{Sampler: WeightedSampler{K: 2, Weights: []float64{1, -1}}},
		{Participation: RandomChurn{DropoutProb: -0.1}},
		{Participation: RandomChurn{DropoutProb: 0.7, StragglerProb: 0.7}},
		{ServerOpt: ServerLRApply{Eta: 0}},
		{ServerOpt: NewFedAvgM(0, 0.9)},
		{ServerOpt: NewFedAvgM(1, 1)},
		{Async: &AsyncConfig{Buffer: 0}},
		{Async: &AsyncConfig{Buffer: 2, MaxDelay: -1}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %d should fail validation", i)
		}
	}
	good := Scenario{
		Sampler:       BernoulliSampler{P: 0.2},
		Participation: RandomChurn{DropoutProb: 0.1, StragglerProb: 0.1},
		ServerOpt:     NewFedAvgM(1, 0.9),
		Async:         &AsyncConfig{Buffer: 3, MaxDelay: 2},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
