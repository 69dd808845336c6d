package core

// The per-craft fan-out must be invisible in the numbers: DFA-R is pinned
// to the serial per-sample loop it replaced, kept here as the reference
// (the role tensor/naive.go plays for the GEMM kernels), and both variants
// are pinned across worker counts.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// dfarReferenceSet is the original DFA-R synthesis: one sample at a time,
// draws interleaved with the optimizations, a fresh frozen model per craft,
// heap-allocated loss. Its two backward halves are pinned bit for bit to
// the full pass by nn's TestBackwardHalvesMatchFull.
func dfarReferenceSet(ctx *fl.AttackContext, cfg DFAConfig) (*tensor.Tensor, []float64) {
	frozen := ctx.NewModel(rand.New(rand.NewSource(1)))
	if err := frozen.SetWeightVector(ctx.Global); err != nil {
		panic(err)
	}
	images := tensor.New(cfg.SampleCount, cfg.ImgC, cfg.ImgSize, cfg.ImgSize)
	per := cfg.ImgC * cfg.ImgSize * cfg.ImgSize
	uniform := nn.UniformTarget(cfg.Classes)
	epochLoss := make([]float64, cfg.SynthesisEpochs)
	for s := 0; s < cfg.SampleCount; s++ {
		dummy := tensor.New(1, cfg.ImgC, cfg.ImgSize, cfg.ImgSize)
		dummy.FillUniform(ctx.Rng, -1, 1)
		fnet := nn.NewNetwork(nn.NewConv2D(ctx.Rng, cfg.ImgC, cfg.ImgC, 3, 1, 1))
		opt := nn.NewSGD(cfg.SynthesisLR, 0.9)
		if cfg.Trained {
			for e := 0; e < cfg.SynthesisEpochs; e++ {
				logits := frozen.Forward(fnet.Forward(dummy, true), true)
				loss, grad := nn.CrossEntropySoftPool(nil, logits, uniform)
				fnet.BackwardParams(frozen.BackwardInput(grad))
				opt.Step(fnet)
				epochLoss[e] += loss
			}
		}
		copy(images.Data[s*per:(s+1)*per], fnet.Forward(dummy, false).Data)
	}
	for e := range epochLoss {
		epochLoss[e] /= float64(cfg.SampleCount)
	}
	return images, epochLoss
}

// fanoutTask is a ladder-shaped task small enough to run under -race.
type fanoutTask struct {
	cfg      DFAConfig
	newModel func(*rand.Rand) *nn.Network
	globals  [][]float64 // one global model per round
}

func newFanoutTask(spec dataset.Spec, rounds int) fanoutTask {
	ctx, cfg := benchTask(spec)
	cfg.SampleCount, cfg.SynthesisEpochs, cfg.BatchSize = 6, 3, 4
	if err := cfg.Validate(); err != nil { // the reference reads the defaults too
		panic(err)
	}
	ft := fanoutTask{cfg: cfg, newModel: ctx.NewModel}
	drift := rand.New(rand.NewSource(9))
	g := ctx.Global
	for r := 0; r < rounds; r++ {
		ft.globals = append(ft.globals, g)
		next := append([]float64(nil), g...)
		for i := range next {
			next[i] += drift.NormFloat64() * 0.01
		}
		g = next
	}
	return ft
}

// ctx returns round r's context with a generator seeded by the round alone,
// so independent runs of the same round draw the same stream.
func (ft fanoutTask) ctx(r int) *fl.AttackContext {
	prev := ft.globals[0]
	if r > 0 {
		prev = ft.globals[r-1]
	}
	return &fl.AttackContext{
		Round: r, Global: ft.globals[r], PrevGlobal: prev,
		NumAttackers: 2, NumSelected: 10, TotalClients: 100, TotalAttackers: 20,
		NewModel: ft.newModel, Rng: rand.New(rand.NewSource(int64(100 + r))),
	}
}

func TestDFARMatchesSerialReference(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(4)
	for _, spec := range []dataset.Spec{dataset.FashionSpec(), dataset.CIFARSpec()} {
		ft := newFanoutTask(spec, 2)
		for _, trained := range []bool{true, false} {
			cfg := ft.cfg
			cfg.Trained = trained
			// One attack per observed output, so both carry their replicas
			// from round 0 into round 1 as a real run does.
			forSet, err := NewDFAR(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forCraft, _ := NewDFAR(cfg)
			for r := range ft.globals {
				refCtx := ft.ctx(r)
				wantImages, wantLoss := dfarReferenceSet(refCtx, cfg)
				images, err := forSet.synthesizeSet(ft.ctx(r))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(images.Shape, wantImages.Shape) || !slices.Equal(images.Data, wantImages.Data) {
					t.Errorf("%s trained=%v round %d: synthetic images differ from the serial reference", spec.Name, trained, r)
				}
				if trained && !reflect.DeepEqual(forSet.LossTrace()[r], wantLoss) {
					t.Errorf("%s round %d: loss trace %v, reference %v", spec.Name, r, forSet.LossTrace()[r], wantLoss)
				}

				// The reference's step 2 continues on its own stream, as
				// Craft's does after synthesizeSet.
				labels := make([]int, cfg.SampleCount)
				yTilde := refCtx.Rng.Intn(cfg.Classes)
				for i := range labels {
					labels[i] = yTilde
				}
				// A fresh classifier every round, where Craft reuses the attack's.
				w, err := newClassifier().train(refCtx, cfg, wantImages, labels)
				if err != nil {
					t.Fatal(err)
				}
				got, err := forCraft.Craft(ft.ctx(r))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, replicate(refCtx, w, cfg.PerturbStd)) {
					t.Errorf("%s trained=%v round %d: Craft vectors differ from the serial reference", spec.Name, trained, r)
				}
			}
			if !trained && len(forSet.LossTrace()) != 0 {
				t.Errorf("%s: static attack recorded a loss trace", spec.Name)
			}
		}
	}
}

// tracedAttack is what DFAR and DFAG share beyond fl.Attack.
type tracedAttack interface {
	fl.Attack
	LossTrace() [][]float64
}

// craftRounds runs a fresh attack over the task's rounds at one worker
// count and returns every submitted vector followed by the loss trace.
func craftRounds(t *testing.T, ft fanoutTask, newAttack func() (tracedAttack, error), workers int) [][]float64 {
	t.Helper()
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(workers)
	a, err := newAttack()
	if err != nil {
		t.Fatal(err)
	}
	// DFA-G draws its persistent state from the first round's stream, so
	// one stream serves all rounds here.
	ctx := ft.ctx(0)
	var out [][]float64
	for r := range ft.globals {
		next := ft.ctx(r)
		ctx.Round, ctx.Global, ctx.PrevGlobal = next.Round, next.Global, next.PrevGlobal
		vs, err := a.Craft(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vs...)
	}
	return append(out, a.LossTrace()...)
}

func TestDFACraftWorkerInvariant(t *testing.T) {
	ft := newFanoutTask(dataset.CIFARSpec(), 2)
	for _, mode := range []struct {
		trained bool
		perturb float64
	}{{true, 0}, {false, 0}, {true, 0.01}} {
		cfg := ft.cfg
		cfg.Trained, cfg.PerturbStd = mode.trained, mode.perturb
		for name, newAttack := range map[string]func() (tracedAttack, error){
			"dfa-r": func() (tracedAttack, error) { return NewDFAR(cfg) },
			"dfa-g": func() (tracedAttack, error) { return NewDFAG(cfg) },
		} {
			one := craftRounds(t, ft, newAttack, 1)
			for _, workers := range []int{2, 8} {
				if !reflect.DeepEqual(one, craftRounds(t, ft, newAttack, workers)) {
					t.Errorf("%s trained=%v perturb=%v: output at %d workers differs from 1 worker",
						name, mode.trained, mode.perturb, workers)
				}
			}
		}
	}
}
