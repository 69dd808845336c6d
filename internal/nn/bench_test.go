package nn

import (
	"math/rand"
	"slices"
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

// BenchmarkReLU measures the activation pair of a train step at the size of
// FashionCNN's first ReLU on a 16-image batch (16×8×8×8), on pre-activations
// of mixed sign as a convolution produces them.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	r := NewReLU()
	pool := tensor.NewPool()
	r.setScratch(pool)
	x := tensor.New(16, 8, 8, 8)
	grad := tensor.New(16, 8, 8, 8)
	x.FillNormal(rng, 0, 1)
	grad.FillNormal(rng, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Reset()
		r.Forward(x, true)
		r.Backward(grad)
	}
}

// BenchmarkFashionCNNShard32 measures one population_100k client at the
// default mean shard size: load the global weights, one local pass of
// batch-16 steps over a 32-sample shard, and flatten the result.
func BenchmarkFashionCNNShard32(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	net := NewFashionCNN(rng, 1, 16, 10)
	net.SetScratch(tensor.NewPool())
	global := net.WeightVector()
	opt := NewSGD(0.05, 0)
	var xs [2]*tensor.Tensor
	var labels [2][]int
	for i := range xs {
		xs[i] = tensor.New(16, 1, 16, 16)
		xs[i].FillNormal(rng, 0, 1)
		labels[i] = make([]int, 16)
		for j := range labels[i] {
			labels[i][j] = rng.Intn(10)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.SetWeightVector(global); err != nil {
			b.Fatal(err)
		}
		for j := range xs {
			TrainBatch(net, opt, xs[j], labels[j])
		}
		_ = net.WeightVector()
	}
}

// zooConvs are the conv layers of the two zoo models on 16×16 inputs, by
// the image each one expands: its input.
type zooConv struct {
	name            string
	ch, size        int
	kk, stride, pad int
}

var zooConvs = []zooConv{
	{"fashion1", 1, 16, 3, 2, 1},
	{"fashion2", 8, 8, 3, 2, 1},
	{"deep1", 3, 16, 3, 1, 1},
	{"deep2", 8, 16, 3, 2, 1},
	{"deep3", 8, 8, 3, 1, 1},
	{"deep4", 16, 8, 3, 2, 1},
	{"deep5", 16, 4, 3, 1, 1},
	{"deep6", 32, 4, 3, 2, 1},
}

// BenchmarkPatchPanels measures what a convolution does to one sample
// before each of its two patch-matrix products, per conv layer of the two
// zoo models on 16×16 inputs: the padded copy and the expansion into panels
// as the forward product reads them (forward) and as the weight-gradient
// product does (dW). tensor.BenchmarkGemmZoo's panelB rows are the products.
func BenchmarkPatchPanels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, l := range zooConvs {
		x := tensor.New(l.ch, l.size, l.size)
		x.FillNormal(rng, 0, 1)
		var g patchGeom
		g.at(l.ch, l.size, l.size, l.kk, l.stride, l.pad)
		xp := make([]float64, g.xpLen)
		pb := make([]float64, max(tensor.PanelBLen(len(g.off), len(g.pos)), tensor.PanelBLen(len(g.pos), len(g.off))))
		for _, order := range []struct {
			name       string
			transposed bool
		}{{"forward", false}, {"dW", true}} {
			b.Run(l.name+"/"+order.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					padInto(xp, x.Data, l.ch, l.size, l.size, l.pad)
					g.moves.GatherPanels(pb, xp, order.transposed)
				}
			})
		}
	}
}

// BenchmarkScatterRows measures what a convolution does to one sample after
// the product that yields its row-major patch-matrix gradient: the scatter
// onto the padded buffer, the interior copied out and the buffer cleared
// (scatterInto). One case per image a zoo layer scatters onto: each conv
// layer's input gradient (the first layer's only in DFA synthesis) and the
// generator's transposed convolutions, whose forward pass is this scatter
// onto their output.
func BenchmarkScatterRows(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	layers := append(slices.Clone(zooConvs), zooConv{"generatorT1", 16, 8, 4, 2, 1}, zooConv{"generatorT2", 8, 16, 4, 2, 1})
	for _, l := range layers {
		var g patchGeom
		g.at(l.ch, l.size, l.size, l.kk, l.stride, l.pad)
		xp := make([]float64, g.xpLen)
		x := make([]float64, l.ch*l.size*l.size)
		cols := tensor.New(len(g.off) * len(g.pos))
		cols.FillNormal(rng, 0, 1)
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scatterInto(x, xp, cols.Data, &g, l.ch, l.size, l.size, l.pad)
			}
		})
	}
}
