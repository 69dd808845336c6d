package nn

import (
	"math/rand"
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
func TestTrainBatchZeroSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	// Pin to one worker: the guarantee covers the layer compute itself;
	// multi-worker fan-out adds a few goroutine-bookkeeping allocations.
	tensor.SetWorkers(1)
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
			step := build(rand.New(rand.NewSource(1)))
			for i := 0; i < 3; i++ { // warm the arena and the GEMM pack pools
				step()
			}
			if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
				t.Errorf("steady-state step allocates %v times per run", allocs)
			}
		})
	}
}

// TestFrozenStepZeroSteadyStateAlloc extends the guarantee to the step DFA-R
// repeats |S|·E times per craft: a frozen forward, the soft-target loss
// and the input-only backward, all drawing from one arena.
func TestFrozenStepZeroSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
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
}
