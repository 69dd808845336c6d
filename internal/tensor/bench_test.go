package tensor

import (
	"math/rand"
	"testing"
)

// zooLayers are the layers whose products make up a train step of the two
// zoo models on 16×16 inputs: FashionCNN's two convolutions and DeepCNN's
// first and last, each one sample's patch-matrix product (out-channels ×
// in-channels·9 × output pixels), and the dense layers — FashionCNN's and
// DeepCNN's two — at batch 16 (batch × in × out).
var zooLayers = []struct {
	name    string
	m, k, n int
	dense   bool
}{
	{"fashion-conv1", 8, 9, 64, false},
	{"fashion-conv2", 16, 72, 16, false},
	{"deep-conv1", 8, 27, 256, false},
	{"deep-conv6", 32, 288, 4, false},
	{"fashion-dense", 16, 256, 10, true},
	{"deep-dense1", 16, 128, 64, true},
	{"deep-dense2", 16, 64, 10, true},
}

// BenchmarkGemmZoo times each layer's three products the way the layer
// calls them. A convolution multiplies its weights by the patch matrix
// (forward, onto the bias), the output gradient by the patch matrix
// transposed (dW) and weightᵀ by the output gradient (dX, TN), once per
// sample, so one iteration is a 16-sample batch of products. The patch
// matrix reaches the first two already in panels (forward-panelB,
// dW-panelB; the expansion that writes them is nn.BenchmarkPatchPanels);
// the NN and NT rows beside them are the same products over a row-major
// matrix, as the harness's tensor.gemm_*_gflops probes run them. A dense
// layer multiplies the batch by the weights (forward, NN), the batchᵀ by
// the gradient onto gradW (dW, TN) and the gradient by the weightsᵀ (dX,
// NT), once per batch, with Dense's shapes.
func BenchmarkGemmZoo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range zooLayers {
		m, k, n := l.m, l.k, l.n
		w := randTensor(rng, m, k).Data    // the layer's left operand, or the dense batch
		x := randTensor(rng, k, n).Data    // patch matrix, or the dense weights
		g := randTensor(rng, m, n).Data    // output gradient
		out := make([]float64, m*n)        // forward output
		dw := make([]float64, m*k)         // weight-gradient partial, or the dense dX
		dx := make([]float64, max(m, n)*k) // patch-matrix gradient, or the dense dW
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
		batch := func(product func()) func() {
			return func() {
				for s := 0; s < 16; s++ {
					product()
				}
			}
		}
		run("forward-NN", batch(func() { GemmPackedA(out, PackA(w, m, k, n, false), x, false, true) }))
		run("forward-panelB", batch(func() { GemmPanelB(out, PackA(w, m, k, n, false), xp, true) }))
		run("dW-NT", batch(func() { GemmNT(dw, g, x, m, n, k, false) }))
		run("dW-panelB", batch(func() { GemmPanelB(dw, PackA(g, m, n, k, false), xtp, false) }))
		run("dX-TN", batch(func() { GemmPackedA(dx[:k*n], PackA(w, k, m, n, true), g, false, false) }))
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
