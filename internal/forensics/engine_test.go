package forensics

// Engine-integration tests over the in-process transport: the audit
// stream must reconcile with the engine's own DPR accounting, stay a pure
// observer (bit-identical results on/off), and record all-filtered rounds.

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/vec"
)

func tinySim(t *testing.T, seed int64, agg fl.Aggregator, atk fl.Attack, obs fl.AggregationObserver) *fl.Simulation {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, seed)
	shards := dataset.PartitionIID(rand.New(rand.NewSource(seed)), train.Len(), 12)
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	cfg := fl.Config{
		TotalClients: 12,
		PerRound:     6,
		Rounds:       5,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         seed,
		EvalLimit:    64,
		Observer:     obs,
	}
	sim, err := fl.NewSimulation(cfg, train, test, fl.Shards(shards), population.FirstK{K: 3}, newModel, agg, atk)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// strongAttack submits far-out updates a Krum-family defense reliably
// rejects, so the reconciliation test sees both filtered and passed cases
// deterministically.
type strongAttack struct{}

func (strongAttack) Name() string { return "strong" }

func (strongAttack) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		v := make([]float64, len(ctx.Global))
		for j := range v {
			v[j] = 50
		}
		out[i] = v
	}
	return out, nil
}

// TestAuditReconcilesWithDPR pins the acceptance contract: on a
// synchronous selection-reporting run, cumulative FN equals the engine's
// MaliciousPassed and TP+FN equals MaliciousSubmitted.
func TestAuditReconcilesWithDPR(t *testing.T) {
	col, err := NewCollector(Options{Defense: "mkrum", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := tinySim(t, 42, &defense.MultiKrum{F: 2}, strongAttack{}, col)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.DPRKnown || res.MaliciousSubmitted == 0 {
		t.Fatalf("fixture produced no attacked selection rounds: %+v", res)
	}
	s := col.Summary()
	if s.Confusion.FN != res.MaliciousPassed {
		t.Fatalf("audit FN %d != engine MaliciousPassed %d", s.Confusion.FN, res.MaliciousPassed)
	}
	if got := s.Confusion.TP + s.Confusion.FN; got != res.MaliciousSubmitted {
		t.Fatalf("audit TP+FN %d != engine MaliciousSubmitted %d", got, res.MaliciousSubmitted)
	}
	if s.ScoreName != "neg-krum-distance" {
		t.Fatalf("score name %q", s.ScoreName)
	}
	if s.Aggregations != len(res.Rounds) {
		t.Fatalf("audited %d aggregations over %d rounds", s.Aggregations, len(res.Rounds))
	}
	// The obvious 50-vector outliers must be perfectly separable for Krum.
	if s.AUC != 1 {
		t.Fatalf("AUC = %v, want 1 for far-out attackers", s.AUC)
	}
}

// TestObserverIsPure pins that attaching forensics changes nothing: the
// run's metrics are bit-identical with and without the collector.
func TestObserverIsPure(t *testing.T) {
	run := func(obs fl.AggregationObserver) *fl.Result {
		sim := tinySim(t, 7, &defense.MultiKrum{F: 2}, strongAttack{}, obs)
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	col, err := NewCollector(Options{Defense: "mkrum"})
	if err != nil {
		t.Fatal(err)
	}
	with := run(col)
	without := run(nil)
	if with.MaxAccuracy != without.MaxAccuracy || with.FinalAccuracy != without.FinalAccuracy {
		t.Fatalf("forensics changed accuracies: %v/%v vs %v/%v",
			with.MaxAccuracy, with.FinalAccuracy, without.MaxAccuracy, without.FinalAccuracy)
	}
	if with.MaliciousPassed != without.MaliciousPassed || with.MaliciousSubmitted != without.MaliciousSubmitted {
		t.Fatal("forensics changed DPR accounting")
	}
	for i := range with.Rounds {
		if with.Rounds[i] != without.Rounds[i] {
			t.Fatalf("round %d trace differs: %+v vs %+v", i, with.Rounds[i], without.Rounds[i])
		}
	}
}

// TestAsyncZeroResponderRoundsRecorded pins the observer contract in
// async-buffered mode: an engine step that produces no updates and
// flushes no buffer must still reach the audit stream as a zero-selection
// round, exactly like the synchronous branch.
func TestAsyncZeroResponderRoundsRecorded(t *testing.T) {
	col, err := NewCollector(Options{Defense: "mkrum"})
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 11)
	shards := dataset.PartitionIID(rand.New(rand.NewSource(11)), train.Len(), 12)
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	cfg := fl.Config{
		TotalClients: 12,
		PerRound:     4,
		Rounds:       3,
		LocalEpochs:  1,
		BatchSize:    8,
		LR:           0.05,
		Seed:         11,
		EvalLimit:    40,
		Observer:     col,
		Scenario: fl.Scenario{
			// Every selected client drops, so no update ever enters the
			// async buffer and no flush ever fires.
			Participation: fl.RandomChurn{DropoutProb: 1},
			Async:         &fl.AsyncConfig{Buffer: 2, MaxDelay: 1},
		},
	}
	asim, err := fl.NewSimulation(cfg, train, test, fl.Shards(shards), nil, newModel, &defense.MultiKrum{F: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asim.Run(); err != nil {
		t.Fatal(err)
	}
	s := col.Summary()
	if s.Aggregations != cfg.Rounds || s.ZeroSelectionRounds != cfg.Rounds {
		t.Fatalf("async dead rounds: audited %d aggregations, %d zero-selection; want %d/%d",
			s.Aggregations, s.ZeroSelectionRounds, cfg.Rounds, cfg.Rounds)
	}
	if s.DecisionRounds != 0 || s.Updates != 0 {
		t.Fatalf("dead rounds should carry no decisions or updates: %+v", s)
	}
}

// rejectAll is the all-filtered defense: it reports a known-but-empty
// selection and keeps the global model.
type rejectAll struct{}

func (rejectAll) Name() string { return "rejectall" }

func (rejectAll) Aggregate(global []float64, _ []fl.Update) ([]float64, fl.Selection, error) {
	return vec.Clone(global), fl.Selection{Accepted: []int{}}, nil
}

// TestAllFilteredRoundsRecorded is the satellite regression over the
// in-process transport: a defense that rejects every update must yield a
// completed run with DPR 0 (not NaN, not a panic), untouched global
// weights, and one zero-selection audit entry per round.
func TestAllFilteredRoundsRecorded(t *testing.T) {
	col, err := NewCollector(Options{Defense: "rejectall"})
	if err != nil {
		t.Fatal(err)
	}
	sim := tinySim(t, 9, rejectAll{}, strongAttack{}, col)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.DPRKnown {
		t.Fatal("empty selection is still a known selection")
	}
	if res.MaliciousPassed != 0 {
		t.Fatalf("all-filtered run passed %d malicious updates", res.MaliciousPassed)
	}
	if res.MaliciousSubmitted > 0 && res.DPR() != 0 {
		t.Fatalf("DPR = %v, want 0", res.DPR())
	}
	s := col.Summary()
	if s.ZeroSelectionRounds != s.Aggregations || s.Aggregations != len(res.Rounds) {
		t.Fatalf("zero-selection rounds %d of %d aggregations over %d rounds",
			s.ZeroSelectionRounds, s.Aggregations, len(res.Rounds))
	}
	if s.Confusion.TN != 0 || s.Confusion.FN != 0 {
		t.Fatalf("all-filtered run accepted something: %+v", s.Confusion)
	}
	if s.Confusion.TP == 0 || s.Confusion.FP == 0 {
		t.Fatalf("rejections not recorded: %+v", s.Confusion)
	}
	// Every accuracy is the untouched initial model's: max == final.
	if res.MaxAccuracy != res.FinalAccuracy {
		t.Fatalf("global moved under an all-filtered defense: %v vs %v", res.MaxAccuracy, res.FinalAccuracy)
	}
}
