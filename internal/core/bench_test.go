package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
)

// benchTask reproduces the shapes the benchmark ladder's paper_k10 cells and
// craft probes run (bench/probes.go): the spec's classifier on 16×16 images,
// |S| = 20, E = 10 (5 for fashion-sim), two attackers among ten selected, so
// `go test -bench DFA ./internal/core` reads like core.dfar_craft_deep_ms /
// core.dfag_craft_fashion_ms without the harness.
func benchTask(spec dataset.Spec) (*fl.AttackContext, DFAConfig) {
	newModel := func(rng *rand.Rand) *nn.Network {
		if spec.Channels == 1 {
			return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
		}
		return nn.NewDeepCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	global := newModel(rand.New(rand.NewSource(2))).WeightVector()
	ctx := &fl.AttackContext{
		Global:         global,
		PrevGlobal:     global,
		NumAttackers:   2,
		NumSelected:    10,
		TotalClients:   100,
		TotalAttackers: 20,
		NewModel:       newModel,
		Rng:            rand.New(rand.NewSource(3)),
	}
	cfg := DFAConfig{
		Classes:         spec.Classes,
		ImgC:            spec.Channels,
		ImgSize:         spec.Size,
		SampleCount:     20,
		SynthesisEpochs: 10,
		ClassifierLR:    0.05,
		BatchSize:       16,
		RegLambda:       1,
		Trained:         true,
	}
	if spec.Channels == 1 {
		cfg.SynthesisEpochs = 5
	}
	return ctx, cfg
}

func benchCraft(b *testing.B, spec dataset.Spec, newAttack func(DFAConfig) (fl.Attack, error)) {
	b.Helper()
	ctx, cfg := benchTask(spec)
	a, err := newAttack(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Craft(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func newDFARAttack(cfg DFAConfig) (fl.Attack, error) { return NewDFAR(cfg) }
func newDFAGAttack(cfg DFAConfig) (fl.Attack, error) { return NewDFAG(cfg) }

// BenchmarkDFAR* measure one full DFA-R round: |S| filter-layer
// optimizations plus the adversarial classifier training.
func BenchmarkDFARCraftFashion(b *testing.B) { benchCraft(b, dataset.FashionSpec(), newDFARAttack) }
func BenchmarkDFARCraftDeep(b *testing.B)    { benchCraft(b, dataset.CIFARSpec(), newDFARAttack) }

// BenchmarkDFAG* measure one full DFA-G round: generator training plus the
// adversarial classifier training.
func BenchmarkDFAGCraftFashion(b *testing.B) { benchCraft(b, dataset.FashionSpec(), newDFAGAttack) }
func BenchmarkDFAGCraftDeep(b *testing.B)    { benchCraft(b, dataset.CIFARSpec(), newDFAGAttack) }

// BenchmarkREFDScore measures one D-score evaluation (inference of one
// client model over the reference set), the per-update cost of the defense.
func BenchmarkREFDScore(b *testing.B) {
	spec := dataset.FashionSpec()
	_, test := dataset.Generate(spec, 1)
	ctx, _ := benchTask(spec)
	ref, err := BalancedReference(test, 20)
	if err != nil {
		b.Fatal(err)
	}
	refd, err := NewREFD(ref, ctx.NewModel, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := refd.dScore(ctx.Global); err != nil {
			b.Fatal(err)
		}
	}
}
