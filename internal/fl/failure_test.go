package fl

// Failure-injection tests: the round loop must surface malformed behaviour
// from attacks and defenses as errors instead of corrupting the global
// model or the metrics.

import (
	"errors"
	"testing"
)

// brokenAttack returns the wrong number of malicious vectors.
type brokenAttack struct{ count int }

func (brokenAttack) Name() string { return "broken" }

func (a brokenAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	out := make([][]float64, a.count)
	for i := range out {
		out[i] = make([]float64, len(ctx.Global))
	}
	return out, nil
}

// shortAttack returns vectors of the wrong length, which the engine's
// intake refuses (see TestIntakeRejectsBadUpdates).
type shortAttack struct{}

func (shortAttack) Name() string { return "short" }

func (shortAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		out[i] = make([]float64, 3)
	}
	return out, nil
}

// errorAttack always fails.
type errorAttack struct{}

func (errorAttack) Name() string { return "error" }

func (errorAttack) Craft(*AttackContext) ([][]float64, error) {
	return nil, errors.New("synthesizer exploded")
}

// badLengthAggregator returns a wrong-length global vector.
type badLengthAggregator struct{}

func (badLengthAggregator) Name() string { return "badlength" }

func (badLengthAggregator) Aggregate(_ []float64, updates []Update) ([]float64, Selection, error) {
	return make([]float64, 3), Selection{}, nil
}

// badSelectionAggregator reports an out-of-range selected index.
type badSelectionAggregator struct{}

func (badSelectionAggregator) Name() string { return "badselection" }

func (badSelectionAggregator) Aggregate(_ []float64, updates []Update) ([]float64, Selection, error) {
	out := make([]float64, len(updates[0].Weights))
	return out, Selection{Accepted: []int{len(updates) + 5}}, nil
}

// errorAggregator always fails.
type errorAggregator struct{}

func (errorAggregator) Name() string { return "erroragg" }

func (errorAggregator) Aggregate(_ []float64, _ []Update) ([]float64, Selection, error) {
	return nil, Selection{}, errors.New("server meltdown")
}

func mustSim(t *testing.T, agg Aggregator, atk Attack) *Simulation {
	t.Helper()
	train, test, shards, newModel := tinySetup(t, 42)
	cfg := tinyConfig()
	cfg.Rounds = 4
	// Half the clients are malicious: attacker participation comes quickly.
	sim, err := NewSimulation(cfg, train, test, shards, firstK(6), newModel, agg, atk)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestAttackCountMismatchFailsRound(t *testing.T) {
	sim := mustSim(t, meanAggregator{}, brokenAttack{count: 99})
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected error for wrong malicious vector count")
	}
}

func TestAttackErrorPropagates(t *testing.T) {
	sim := mustSim(t, meanAggregator{}, errorAttack{})
	_, err := sim.Run()
	if err == nil {
		t.Fatal("expected attack error to propagate")
	}
}

func TestAggregatorLengthMismatchFailsRound(t *testing.T) {
	sim := mustSim(t, badLengthAggregator{}, nil)
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected error for wrong aggregate length")
	}
}

func TestAggregatorBadSelectionFailsRound(t *testing.T) {
	sim := mustSim(t, badSelectionAggregator{}, zeroAttack{})
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected error for out-of-range selection index")
	}
}

func TestAggregatorErrorPropagates(t *testing.T) {
	sim := mustSim(t, errorAggregator{}, nil)
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected aggregator error to propagate")
	}
}
