package tensor

import (
	"math/rand"
	"testing"
)

// zooLayers are the layers whose products make up a train step of the two
// zoo models on 16×16 inputs: FashionCNN's two convolutions and DeepCNN's
// first and last, each one sample's patch-matrix product (out-channels ×
// in-channels·9 × output pixels), and DeepCNN's first dense layer at batch
// 16 (batch × in × out).
var zooLayers = []struct {
	name    string
	m, k, n int
	dense   bool
}{
	{"fashion-conv1", 8, 9, 64, false},
	{"fashion-conv2", 16, 72, 16, false},
	{"deep-conv1", 8, 27, 256, false},
	{"deep-conv6", 32, 288, 4, false},
	{"deep-dense1", 16, 256, 10, true},
}

// BenchmarkGemmZoo times each layer's three products the way the layer
// calls them. A convolution multiplies its packed weights by the patch
// matrix (forward, onto the bias), the output gradient by the patch matrix
// transposed (dW) and the packed weightᵀ by the output gradient (dX, TN);
// the weights are packed once per 16-sample batch, so one iteration is
// PackA, 16 products and Release. The patch matrix reaches the first two
// already in panels (forward-panelB, dW-panelB; the expansion that writes
// them is nn.BenchmarkPatchPanels); the NN and NT rows beside them are the
// same products over a row-major matrix, packing included, as the harness's
// tensor.gemm_*_gflops probes run them. A dense layer multiplies the
// batch by the weights (forward, NN), the batchᵀ by the gradient onto gradW
// (dW, TN) and the gradient by the weightsᵀ (dX, NT), once per batch.
func BenchmarkGemmZoo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range zooLayers {
		m, k, n := l.m, l.k, l.n
		w := randTensor(rng, m, k).Data    // the layer's left operand
		x := randTensor(rng, k, n).Data    // patch matrix, or the dense weights
		g := randTensor(rng, m, n).Data    // output gradient
		out := make([]float64, m*n)        // forward output
		dw := make([]float64, m*k)         // weight-gradient partial
		dx := make([]float64, max(m, n)*k) // patch-matrix or input gradient
		run := func(name string, fn func()) {
			b.Run(l.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
		if l.dense {
			run("forward-NN", func() { GemmNN(out, w, x, m, k, n, false) })
			run("dW-TN", func() { GemmTN(dx[:k*n], w, g, k, m, n, true) })
			run("dX-NT", func() { GemmNT(dw, g, x, m, n, k, false) })
			continue
		}
		xp := make([]float64, PanelBLen(k, n))  // the patch matrix in panels
		xtp := make([]float64, PanelBLen(n, k)) // and its transpose
		run("forward-NN", func() {
			wp := PackA(w, m, k, n, false)
			for s := 0; s < 16; s++ {
				GemmPackedA(out, wp, x, false, true)
			}
			wp.Release()
		})
		run("forward-panelB", func() {
			wp := PackA(w, m, k, n, false)
			for s := 0; s < 16; s++ {
				GemmPanelB(out, wp, xp, true)
			}
			wp.Release()
		})
		run("dW-NT", func() {
			for s := 0; s < 16; s++ {
				GemmNT(dw, g, x, m, n, k, false)
			}
		})
		run("dW-panelB", func() {
			for s := 0; s < 16; s++ {
				gp := PackA(g, m, n, k, false)
				GemmPanelB(dw, gp, xtp, false)
				gp.Release()
			}
		})
		run("dX-TN", func() {
			wtp := PackA(w, k, m, n, true)
			for s := 0; s < 16; s++ {
				GemmPackedA(dx[:k*n], wtp, g, false, false)
			}
			wtp.Release()
		})
	}
}

// BenchmarkGemmTN times a dense layer's weight-gradient product at batch 64
// (inputᵀ·gradient, 256×64 · 64×10).
func BenchmarkGemmTN(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 64, 256)
	y := randTensor(rng, 64, 10)
	c := make([]float64, 256*10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTN(c, x.Data, y.Data, 256, 64, 10, false)
	}
}
