package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// backwardCase is one network with a batch and an output gradient for it.
type backwardCase struct {
	name  string
	build func(rng *rand.Rand) *Network
	in    []int // input shape, batch first
}

func backwardCases() []backwardCase {
	lc, lh, lw := GeneratorLatentSize(16)
	return []backwardCase{
		{"conv2d", func(rng *rand.Rand) *Network { return NewNetwork(NewConv2D(rng, 3, 8, 3, 2, 1)) }, []int{5, 3, 12, 12}},
		{"convtranspose2d", func(rng *rand.Rand) *Network { return NewNetwork(NewConvTranspose2D(rng, 4, 6, 4, 2, 1)) }, []int{5, 4, 6, 6}},
		{"dense", func(rng *rand.Rand) *Network { return NewNetwork(NewDense(rng, 48, 10)) }, []int{5, 48}},
		{"deepcnn", func(rng *rand.Rand) *Network { return NewDeepCNN(rng, 3, 16, 10) }, []int{5, 3, 16, 16}},
		{"deepcnn-batch1", func(rng *rand.Rand) *Network { return NewDeepCNN(rng, 3, 16, 10) }, []int{1, 3, 16, 16}},
		{"generator", func(rng *rand.Rand) *Network { return NewGenerator(rng, 3, 16) }, []int{5, lc, lh, lw}},
	}
}

// TestBackwardHalvesMatchFull pins the contract of the two entry points to
// the full pass: BackwardInput returns Backward's dX bit for bit and leaves
// every Grads tensor exactly zero, BackwardParams accumulates Backward's
// parameter gradients bit for bit, at any worker count.
func TestBackwardHalvesMatchFull(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		for _, tc := range backwardCases() {
			rng := rand.New(rand.NewSource(31))
			full := tc.build(rng)
			x := tensor.New(tc.in...)
			x.FillNormal(rng, 0, 1)
			// Three replicas with the same weights, each with its own arena,
			// so every pass sees the activations of its own forward.
			inputOnly, paramsOnly := full.Clone(), full.Clone()
			for _, n := range []*Network{full, inputOnly, paramsOnly} {
				n.SetScratch(tensor.NewPool())
			}
			g := tensor.New(full.Forward(x, true).Shape...)
			g.FillNormal(rng, 0, 1)
			wantDx := full.Backward(g)

			inputOnly.Forward(x, true)
			dx := inputOnly.BackwardInput(g)
			if !sameTensor(dx, wantDx) {
				t.Errorf("%s workers=%d: BackwardInput dX differs from Backward", tc.name, workers)
			}
			for i, gr := range inputOnly.Grads() {
				for _, v := range gr.Data {
					if v != 0 {
						t.Fatalf("%s workers=%d: BackwardInput wrote Grads[%d]", tc.name, workers, i)
					}
				}
			}

			paramsOnly.Forward(x, true)
			paramsOnly.BackwardParams(g)
			for i, gr := range paramsOnly.Grads() {
				if !sameTensor(gr, full.Grads()[i]) {
					t.Errorf("%s workers=%d: BackwardParams Grads[%d] differs from Backward", tc.name, workers, i)
				}
			}
		}
	}
}
