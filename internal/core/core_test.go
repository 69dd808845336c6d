package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/vec"
)

// testTask bundles a small trained model and its dataset for attack tests.
type testTask struct {
	spec     dataset.Spec
	train    *dataset.Dataset
	test     *dataset.Dataset
	newModel func(rng *rand.Rand) *nn.Network
	global   []float64
}

// newTestTask generates the tiny dataset and pre-trains a model on it so the
// global model carries real signal — DFA's synthesis is guided by the global
// model, so a purely random model would make loss-trend tests vacuous.
func newTestTask(t *testing.T, pretrainEpochs int) *testTask {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 21)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	rng := rand.New(rand.NewSource(77))
	model := newModel(rng)
	opt := nn.NewSGD(0.05, 0.9)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < pretrainEpochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += 16 {
			end := start + 16
			if end > len(idx) {
				end = len(idx)
			}
			x, labels := train.Batch(idx[start:end])
			nn.TrainBatch(model, opt, x, labels)
		}
	}
	return &testTask{
		spec:     spec,
		train:    train,
		test:     test,
		newModel: newModel,
		global:   model.WeightVector(),
	}
}

func (tt *testTask) ctx(rng *rand.Rand, attackers int) *fl.AttackContext {
	return &fl.AttackContext{
		Round:          0,
		Global:         tt.global,
		PrevGlobal:     tt.global,
		NumAttackers:   attackers,
		NumSelected:    10,
		TotalClients:   100,
		TotalAttackers: 20,
		NewModel:       tt.newModel,
		Rng:            rng,
	}
}

func (tt *testTask) dfaConfig(trained bool) DFAConfig {
	return DFAConfig{
		Classes:         tt.spec.Classes,
		ImgC:            tt.spec.Channels,
		ImgSize:         tt.spec.Size,
		SampleCount:     8,
		SynthesisEpochs: 5,
		SynthesisLR:     0.01,
		ClassifierLR:    0.05,
		BatchSize:       4,
		RegLambda:       1,
		Trained:         trained,
	}
}

func TestDFAConfigValidate(t *testing.T) {
	bad := []DFAConfig{
		{Classes: 1, ImgC: 1, ImgSize: 8, SampleCount: 4, SynthesisEpochs: 1},
		{Classes: 10, ImgC: 0, ImgSize: 8, SampleCount: 4, SynthesisEpochs: 1},
		{Classes: 10, ImgC: 1, ImgSize: 8, SampleCount: 0, SynthesisEpochs: 1},
		{Classes: 10, ImgC: 1, ImgSize: 8, SampleCount: 4, SynthesisEpochs: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	good := DFAConfig{Classes: 10, ImgC: 1, ImgSize: 8, SampleCount: 4, SynthesisEpochs: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.ClassifierEpochs != 1 || good.BatchSize != 16 || good.SynthesisLR <= 0 || good.ClassifierLR <= 0 {
		t.Fatalf("defaults not filled: %+v", good)
	}
}

func TestDFARCraftShapeAndEffect(t *testing.T) {
	tt := newTestTask(t, 4)
	a, err := NewDFAR(tt.dfaConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "dfa-r" {
		t.Fatalf("Name = %q", a.Name())
	}
	out, err := a.Craft(tt.ctx(rand.New(rand.NewSource(1)), 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d vectors, want 3", len(out))
	}
	for _, v := range out {
		if len(v) != len(tt.global) {
			t.Fatalf("vector length %d, want %d", len(v), len(tt.global))
		}
	}
	if vec.SqDist(out[0], tt.global) == 0 {
		t.Fatal("DFA-R update should differ from the global model")
	}
}

func TestDFARSynthesisLossDecreases(t *testing.T) {
	tt := newTestTask(t, 6)
	a, err := NewDFAR(tt.dfaConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Craft(tt.ctx(rand.New(rand.NewSource(2)), 1)); err != nil {
		t.Fatal(err)
	}
	trace := a.LossTrace()
	if len(trace) != 1 {
		t.Fatalf("expected 1 round of losses, got %d", len(trace))
	}
	epochs := trace[0]
	if len(epochs) != 5 {
		t.Fatalf("expected 5 epoch losses, got %d", len(epochs))
	}
	if epochs[len(epochs)-1] >= epochs[0] {
		t.Fatalf("DFA-R synthesis loss should decrease: first %.4f, last %.4f", epochs[0], epochs[len(epochs)-1])
	}
	// The optimum of the objective is ln(L); the loss must stay above it.
	if epochs[len(epochs)-1] < math.Log(float64(tt.spec.Classes))-1e-6 {
		t.Fatalf("loss %v below theoretical optimum ln(L)=%v", epochs[len(epochs)-1], math.Log(float64(tt.spec.Classes)))
	}
}

func TestDFARStaticVariant(t *testing.T) {
	tt := newTestTask(t, 2)
	a, err := NewDFAR(tt.dfaConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "dfa-r-static" {
		t.Fatalf("Name = %q", a.Name())
	}
	out, err := a.Craft(tt.ctx(rand.New(rand.NewSource(3)), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d vectors", len(out))
	}
	if len(a.LossTrace()) != 0 {
		t.Fatal("static variant must not record synthesis losses")
	}
}

func TestDFAGCraftAndPersistentState(t *testing.T) {
	tt := newTestTask(t, 4)
	a, err := NewDFAG(tt.dfaConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "dfa-g" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.targetClass != -1 {
		t.Fatal("target class should be unset before the first round")
	}
	rng := rand.New(rand.NewSource(4))
	out, err := a.Craft(tt.ctx(rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d vectors", len(out))
	}
	y1 := a.targetClass
	if y1 < 0 || y1 >= tt.spec.Classes {
		t.Fatalf("target class %d out of range", y1)
	}
	// Second round: Ỹ never changes through the training procedure.
	if _, err := a.Craft(tt.ctx(rng, 2)); err != nil {
		t.Fatal(err)
	}
	if a.targetClass != y1 {
		t.Fatal("DFA-G target class must stay fixed across rounds")
	}
	if len(a.LossTrace()) != 2 {
		t.Fatalf("expected 2 rounds of losses, got %d", len(a.LossTrace()))
	}
}

func TestDFAGMaximizesObjective(t *testing.T) {
	tt := newTestTask(t, 6)
	cfg := tt.dfaConfig(true)
	cfg.SynthesisEpochs = 8
	a, err := NewDFAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Craft(tt.ctx(rand.New(rand.NewSource(5)), 1)); err != nil {
		t.Fatal(err)
	}
	epochs := a.LossTrace()[0]
	if epochs[len(epochs)-1] <= epochs[0] {
		t.Fatalf("DFA-G objective should increase (maximization): first %.4f, last %.4f",
			epochs[0], epochs[len(epochs)-1])
	}
}

// TestRegularizationImprovesStealth pins the purpose of Eq. 3: with L_d the
// adversarial update stays closer to the global model than without it.
func TestRegularizationImprovesStealth(t *testing.T) {
	tt := newTestTask(t, 4)
	dist := func(lambda float64) float64 {
		cfg := tt.dfaConfig(true)
		cfg.RegLambda = lambda
		a, err := NewDFAR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.Craft(tt.ctx(rand.New(rand.NewSource(6)), 1))
		if err != nil {
			t.Fatal(err)
		}
		return math.Sqrt(vec.SqDist(out[0], tt.global))
	}
	with := dist(1)
	without := dist(0)
	if with >= without {
		t.Fatalf("L_d should shrink the deviation: with=%.5f without=%.5f", with, without)
	}
}

func TestRealDataAttack(t *testing.T) {
	tt := newTestTask(t, 2)
	cfg := tt.dfaConfig(true)
	shard := []int{0, 1, 2, 3, 4, 5}
	a, err := NewRealData(cfg, tt.train, shard)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "real-data" {
		t.Fatalf("Name = %q", a.Name())
	}
	out, err := a.Craft(tt.ctx(rand.New(rand.NewSource(7)), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || vec.SqDist(out[0], tt.global) == 0 {
		t.Fatal("real-data attack should produce modified updates")
	}
	if _, err := NewRealData(cfg, nil, nil); err == nil {
		t.Fatal("expected error without data")
	}
}

func TestBalancedReference(t *testing.T) {
	_, test := dataset.Generate(dataset.TinySpec(), 9)
	ref, err := BalancedReference(test, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ref.Classes)
	for _, l := range ref.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 5 {
			t.Fatalf("class %d has %d reference samples, want 5", c, n)
		}
	}
	if _, err := BalancedReference(test, 10000); err == nil {
		t.Fatal("expected error for oversized per-class request")
	}
	if _, err := BalancedReference(test, 0); err == nil {
		t.Fatal("expected error for zero per-class request")
	}
}

func TestREFDScoresAndAggregation(t *testing.T) {
	tt := newTestTask(t, 6)
	ref, err := BalancedReference(tt.test, 8)
	if err != nil {
		t.Fatal(err)
	}
	refd, err := NewREFD(ref, tt.newModel, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if refd.Name() != "refd" {
		t.Fatalf("Name = %q", refd.Name())
	}

	// Honest update: the trained global model itself.
	honest := tt.global

	// Biased update: fine-tune the global model to predict class 0 for
	// everything (the DFA-G failure signature).
	biasedModel := tt.newModel(rand.New(rand.NewSource(8)))
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
	biased := biasedModel.WeightVector()

	bh, vh, dh, err := refd.dScore(honest)
	if err != nil {
		t.Fatal(err)
	}
	bb, _, db, err := refd.dScore(biased)
	if err != nil {
		t.Fatal(err)
	}
	if bb >= bh {
		t.Fatalf("biased balance %v should be below honest %v", bb, bh)
	}
	if db >= dh {
		t.Fatalf("biased D-score %v should be below honest %v", db, dh)
	}
	if vh <= 0 || vh > 1 {
		t.Fatalf("confidence %v out of range", vh)
	}

	// Aggregation must reject the biased update (rejectX=1).
	updates := []fl.Update{
		{ClientID: 0, Weights: honest, NumSamples: 10},
		{ClientID: 1, Weights: vec.Clone(honest), NumSamples: 10},
		{ClientID: 2, Weights: biased, NumSamples: 10, Malicious: true},
	}
	_, sel, err := refd.Aggregate(nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 2 {
		t.Fatalf("selected %d updates, want 2", len(sel.Accepted))
	}
	for _, idx := range sel.Accepted {
		if updates[idx].Malicious {
			t.Fatal("REFD failed to reject the biased update")
		}
	}
	if len(sel.Scores) != len(updates) || sel.ScoreName != "dscore" {
		t.Fatalf("REFD should report D-scores, got %v (%q)", sel.Scores, sel.ScoreName)
	}
}

func TestREFDConstructorErrors(t *testing.T) {
	_, test := dataset.Generate(dataset.TinySpec(), 9)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, 1, 8, 4)
	}
	if _, err := NewREFD(nil, newModel, 1, 1); err == nil {
		t.Fatal("expected error for nil reference")
	}
	if _, err := NewREFD(test, newModel, 0, 1); err == nil {
		t.Fatal("expected error for non-positive alpha")
	}
	if _, err := NewREFD(test, newModel, 1, -1); err == nil {
		t.Fatal("expected error for negative rejectX")
	}
}

func TestREFDKeepsAtLeastOneUpdate(t *testing.T) {
	tt := newTestTask(t, 2)
	ref, err := BalancedReference(tt.test, 4)
	if err != nil {
		t.Fatal(err)
	}
	refd, err := NewREFD(ref, tt.newModel, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	updates := []fl.Update{
		{ClientID: 0, Weights: tt.global, NumSamples: 5},
		{ClientID: 1, Weights: vec.Clone(tt.global), NumSamples: 5},
	}
	_, sel, err := refd.Aggregate(nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 1 {
		t.Fatalf("selected %d, want 1 (rejectX clamped)", len(sel.Accepted))
	}
}

func TestREFDEmptyUpdates(t *testing.T) {
	tt := newTestTask(t, 1)
	ref, err := BalancedReference(tt.test, 4)
	if err != nil {
		t.Fatal(err)
	}
	refd, err := NewREFD(ref, tt.newModel, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := refd.Aggregate(nil, nil); err == nil {
		t.Fatal("expected error for empty updates")
	}
}

func TestPerturbStdProducesDistinctUpdates(t *testing.T) {
	tt := newTestTask(t, 2)
	cfg := tt.dfaConfig(true)
	cfg.PerturbStd = 1e-3
	a, err := NewDFAR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Craft(tt.ctx(rand.New(rand.NewSource(9)), 3))
	if err != nil {
		t.Fatal(err)
	}
	if vec.SqDist(out[0], out[1]) == 0 {
		t.Fatal("perturbed attacker copies should differ")
	}
}
