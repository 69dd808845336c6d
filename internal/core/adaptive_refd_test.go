package core

import (
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/vec"
)

func TestAdaptiveREFDConstructor(t *testing.T) {
	tt := newTestTask(t, 1)
	ref, err := BalancedReference(tt.test, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptiveREFD(ref, tt.newModel, 1, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "refd-adaptive" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.lastAlpha != 1 {
		t.Fatalf("initial alpha = %v, want 1", a.lastAlpha)
	}
	// Invalid bounds fall back to the defaults.
	b, err := NewAdaptiveREFD(ref, tt.newModel, 1, -1, -2)
	if err != nil {
		t.Fatal(err)
	}
	if b.MinAlpha != 0.25 || b.MaxAlpha != 4 {
		t.Fatalf("default bounds not applied: %v..%v", b.MinAlpha, b.MaxAlpha)
	}
	if _, err := NewAdaptiveREFD(nil, tt.newModel, 1, 0.5, 2); err == nil {
		t.Fatal("expected error for nil reference")
	}
}

func TestAdaptiveREFDRejectsBiasedUpdate(t *testing.T) {
	tt := newTestTask(t, 6)
	ref, err := BalancedReference(tt.test, 8)
	if err != nil {
		t.Fatal(err)
	}
	refd, err := NewAdaptiveREFD(ref, tt.newModel, 1, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}

	biasedModel := tt.newModel(rand.New(rand.NewSource(1))).Clone()
	if err := biasedModel.SetWeightVector(tt.global); err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(0.1, 0)
	for e := 0; e < 20; e++ {
		x, labels := tt.train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
		for i := range labels {
			labels[i] = 0
		}
		nn.TrainBatch(biasedModel, opt, x, labels)
	}

	updates := []fl.Update{
		{ClientID: 0, Weights: tt.global, NumSamples: 10},
		{ClientID: 1, Weights: vec.Clone(tt.global), NumSamples: 10},
		{ClientID: 2, Weights: biasedModel.WeightVector(), NumSamples: 10, Malicious: true},
	}
	_, sel, err := refd.Aggregate(nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range sel.Accepted {
		if updates[idx].Malicious {
			t.Fatal("adaptive REFD failed to reject the biased update")
		}
	}
	if len(sel.Scores) != len(updates) || sel.ScoreName != "dscore" {
		t.Fatalf("adaptive REFD should report D-scores, got %v (%q)", sel.Scores, sel.ScoreName)
	}
	// A biased attacker spreads the balance values, so α should move above
	// its initial 1 (B-dominated round) — or at minimum have been adapted.
	if refd.lastAlpha == 1 {
		t.Log("alpha stayed at 1 (acceptable when dispersions tie)")
	}
	if refd.lastAlpha < refd.MinAlpha || refd.lastAlpha > refd.MaxAlpha {
		t.Fatalf("alpha %v escaped [%v, %v]", refd.lastAlpha, refd.MinAlpha, refd.MaxAlpha)
	}
}

func TestAdaptiveREFDEmptyUpdates(t *testing.T) {
	tt := newTestTask(t, 1)
	ref, err := BalancedReference(tt.test, 4)
	if err != nil {
		t.Fatal(err)
	}
	refd, err := NewAdaptiveREFD(ref, tt.newModel, 1, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := refd.Aggregate(nil, nil); err == nil {
		t.Fatal("expected error for empty updates")
	}
}

func TestCoeffVar(t *testing.T) {
	if got := coeffVar([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("coeffVar of constants = %v, want 0", got)
	}
	if got := coeffVar([]float64{0, 0}); got != 0 {
		t.Fatalf("coeffVar of zeros = %v, want 0", got)
	}
	if got := coeffVar([]float64{1, 3}); got <= 0 {
		t.Fatalf("coeffVar of spread values = %v, want > 0", got)
	}
}

func TestClampF(t *testing.T) {
	if clampF(5, 1, 3) != 3 || clampF(0, 1, 3) != 1 || clampF(2, 1, 3) != 2 {
		t.Fatal("clampF wrong")
	}
}
