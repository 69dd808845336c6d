package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func benchNet(b *testing.B, net *Network, x *tensor.Tensor, classes int) {
	b.Helper()
	// Clients attach a scratch arena before training; benchmark the same
	// configuration.
	net.SetScratch(tensor.NewPool())
	labels := make([]int, x.Shape[0])
	opt := NewSGD(0.05, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TrainBatch(net, opt, x, labels)
	}
}

// BenchmarkFashionCNNTrainBatch measures one training step of the paper's
// 2-conv Fashion-MNIST classifier on a 16-image batch.
func BenchmarkFashionCNNTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := NewFashionCNN(rng, 1, 16, 10)
	x := tensor.New(16, 1, 16, 16)
	x.FillNormal(rng, 0, 1)
	benchNet(b, net, x, 10)
}

// BenchmarkDeepCNNTrainBatch measures one training step of the 6-conv
// CIFAR/SVHN classifier on a 16-image batch.
func BenchmarkDeepCNNTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := NewDeepCNN(rng, 3, 16, 10)
	x := tensor.New(16, 3, 16, 16)
	x.FillNormal(rng, 0, 1)
	benchNet(b, net, x, 10)
}

// BenchmarkDeepCNNFrozenInputBackward measures what DFA synthesis asks of
// the frozen global model: a forward pass and the input gradient alone, on
// DFA-G's 20-image synthetic set.
func BenchmarkDeepCNNFrozenInputBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := NewDeepCNN(rng, 3, 16, 10)
	net.SetScratch(tensor.NewPool())
	x := tensor.New(20, 3, 16, 16)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetScratch()
		_, grad := crossEntropyPool(net.Scratch(), net.Forward(x, true), labels)
		_ = net.BackwardInput(grad)
	}
}

// BenchmarkGeneratorForward measures the DFA-G generator synthesizing a
// 20-image set.
func BenchmarkGeneratorForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	gen := NewGenerator(rng, 3, 16)
	gen.SetScratch(tensor.NewPool())
	c, h, w := GeneratorLatentSize(16)
	z := tensor.New(20, c, h, w)
	z.FillNormal(rng, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.ResetScratch()
		_ = gen.Forward(z, false)
	}
}

// BenchmarkWeightVectorRoundTrip measures the flatten/load path used on
// every federated update.
func BenchmarkWeightVectorRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net := NewDeepCNN(rng, 3, 16, 10)
	v := net.WeightVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = net.WeightVector()
		if err := net.SetWeightVector(v); err != nil {
			b.Fatal(err)
		}
	}
}
