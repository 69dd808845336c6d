package nn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestTrainBatchZeroSteadyStateAlloc locks in the scratch-arena guarantee:
// once the arena is warm, a full forward/backward/step of a training batch
// performs no heap allocation. Every convolution call also borrows packed
// weight panels from the GEMM recycler and hands them back; the two steps
// beside TrainBatch reach the panel products it does not — the forward
// panels at evaluation batch size, and a generator step (weightᵀ forward and
// weight backward in ConvTranspose2D, weightᵀ in Conv2D's input half).
// Each step runs on one worker and again on two workers whose helper slot
// is held (see budgets): every batch and row-tile fan-out then plans two
// chunks and runs both inline, which must allocate nothing either.
func TestTrainBatchZeroSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer tensor.SetWorkers(0)
	trainStep := func(build func(*rand.Rand) *Network) func(*rand.Rand) func() {
		return func(rng *rand.Rand) func() {
			net := build(rng)
			net.SetScratch(tensor.NewPool())
			opt := NewSGD(0.05, 0)
			x := tensor.New(8, net.layers[0].(*Conv2D).InC, 16, 16)
			x.FillNormal(rng, 0, 1)
			labels := make([]int, 8)
			for i := range labels {
				labels[i] = rng.Intn(10)
			}
			return func() { TrainBatch(net, opt, x, labels) }
		}
	}
	for name, build := range map[string]func(*rand.Rand) func(){
		"fashion": trainStep(func(rng *rand.Rand) *Network { return NewFashionCNN(rng, 1, 16, 10) }),
		"deep":    trainStep(func(rng *rand.Rand) *Network { return NewDeepCNN(rng, 3, 16, 10) }),
		"deep-eval-forward": func(rng *rand.Rand) func() {
			net := NewDeepCNN(rng, 3, 16, 10)
			net.SetScratch(tensor.NewPool())
			x := tensor.New(64, 3, 16, 16)
			x.FillNormal(rng, 0, 1)
			return func() {
				net.ResetScratch()
				net.Forward(x, false)
			}
		},
		"generator-step": func(rng *rand.Rand) func() {
			gen := NewGenerator(rng, 3, 16)
			gen.SetScratch(tensor.NewPool())
			c, h, w := GeneratorLatentSize(16)
			z := tensor.New(20, c, h, w)
			z.FillNormal(rng, 0, 1)
			grad := tensor.New(20, 3, 16, 16)
			grad.FillNormal(rng, 0, 1)
			return func() {
				gen.ResetScratch()
				gen.Forward(z, true)
				gen.backward(grad, true, true)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			for budget, hold := range budgets {
				t.Run(budget, func(t *testing.T) {
					defer hold(t)()
					step := build(rand.New(rand.NewSource(1)))
					for i := 0; i < 3; i++ { // warm the arena and the GEMM pack pools
						step()
					}
					if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
						t.Errorf("steady-state step allocates %v times per run", allocs)
					}
				})
			}
		})
	}
}

// budgets are the worker budgets the zero-allocation guards run under, each
// a func that sets it up and returns its teardown: one worker, and two
// workers whose one helper slot a blocked tensor.TryGo holds — how a
// training step or a DFA-R filter step really runs inside a round's
// tensor.Drain, which holds the slots.
var budgets = map[string]func(t *testing.T) (release func()){
	"one-worker": func(*testing.T) func() {
		tensor.SetWorkers(1)
		return func() {}
	},
	"held-slot": func(t *testing.T) func() {
		tensor.SetWorkers(2)
		var wg sync.WaitGroup
		block := make(chan struct{})
		if !tensor.TryGo(&wg, func() { <-block }) {
			t.Fatal("no free helper slot to hold")
		}
		return func() { close(block); wg.Wait() }
	},
}

// TestFrozenStepZeroSteadyStateAlloc extends the guarantee to the step DFA-R
// repeats |S|·E times per craft: a frozen forward, the soft-target loss
// and the input-only backward, all drawing from one arena.
func TestFrozenStepZeroSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer tensor.SetWorkers(0)
	for budget, hold := range budgets {
		t.Run(budget, func(t *testing.T) {
			defer hold(t)()
			rng := rand.New(rand.NewSource(2))
			frozen := NewDeepCNN(rng, 3, 16, 10)
			pool := tensor.NewPool()
			frozen.SetScratch(pool)
			x := tensor.New(1, 3, 16, 16)
			x.FillNormal(rng, 0, 1)
			uniform := UniformTarget(10)
			step := func() {
				pool.Reset()
				_, grad := CrossEntropySoftPool(pool, frozen.Forward(x, true), uniform)
				frozen.BackwardInput(grad)
			}
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
				t.Errorf("steady-state frozen step allocates %v times per run", allocs)
			}
		})
	}
}
