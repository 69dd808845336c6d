package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// lossOf evaluates the mean cross-entropy of the network on (x, labels)
// without caching activations.
func lossOf(n *Network, x *tensor.Tensor, labels []int) float64 {
	loss, _ := CrossEntropy(n.Forward(x, false), labels)
	return loss
}

// checkParamGradients compares analytic parameter gradients against central
// finite differences on a random subset of coordinates.
func checkParamGradients(t *testing.T, n *Network, x *tensor.Tensor, labels []int, rng *rand.Rand) {
	t.Helper()
	n.ZeroGrads()
	logits := n.Forward(x, true)
	_, g := CrossEntropy(logits, labels)
	n.backward(g, true, true)

	const eps = 1e-5
	const tol = 1e-4
	for pi, p := range n.Params() {
		grad := n.Grads()[pi]
		checks := 12
		if p.Len() < checks {
			checks = p.Len()
		}
		for c := 0; c < checks; c++ {
			i := rng.Intn(p.Len())
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := lossOf(n, x, labels)
			p.Data[i] = orig - eps
			lm := lossOf(n, x, labels)
			p.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := grad.Data[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > tol {
				t.Errorf("param %d coord %d: analytic %.8f vs numeric %.8f", pi, i, analytic, numeric)
			}
		}
	}
}

// checkInputGradients compares the gradient w.r.t. the network input (the
// path DFA uses to optimize synthetic images through the frozen classifier)
// against finite differences.
func checkInputGradients(t *testing.T, n *Network, x *tensor.Tensor, labels []int, rng *rand.Rand) {
	t.Helper()
	n.ZeroGrads()
	logits := n.Forward(x, true)
	_, g := CrossEntropy(logits, labels)
	dx := n.backward(g, true, true)

	const eps = 1e-5
	const tol = 1e-4
	for c := 0; c < 20; c++ {
		i := rng.Intn(x.Len())
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(n, x, labels)
		x.Data[i] = orig - eps
		lm := lossOf(n, x, labels)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := dx.Data[i]
		diff := math.Abs(numeric - analytic)
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if diff/scale > tol {
			t.Errorf("input coord %d: analytic %.8f vs numeric %.8f", i, analytic, numeric)
		}
	}
}

func randBatch(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillNormal(rng, 0, 1)
	return x
}

// at reads element (i, j) of a row-major matrix.
func at(m *tensor.Tensor, i, j int) float64 { return m.Data[i*m.Shape[1]+j] }

// sameTensor reports whether a and b have one shape and equal elements.
func sameTensor(a, b *tensor.Tensor) bool {
	return slices.Equal(a.Shape, b.Shape) && slices.Equal(a.Data, b.Data)
}

func randLabels(rng *rand.Rand, batch, classes int) []int {
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return labels
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork(NewDense(rng, 6, 5), NewReLU(), NewDense(rng, 5, 4))
	x := randBatch(rng, 3, 6)
	labels := randLabels(rng, 3, 4)
	checkParamGradients(t, n, x, labels, rng)
	checkInputGradients(t, n, x, labels, rng)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork(
		NewConv2D(rng, 2, 3, 3, 1, 1),
		NewReLU(),
		NewConv2D(rng, 3, 4, 3, 2, 1),
		NewFlatten(),
		NewDense(rng, 4*3*3, 3),
	)
	x := randBatch(rng, 2, 2, 6, 6)
	labels := randLabels(rng, 2, 3)
	checkParamGradients(t, n, x, labels, rng)
	checkInputGradients(t, n, x, labels, rng)
}

func TestConvTranspose2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(
		NewConvTranspose2D(rng, 2, 3, 4, 2, 1), // 3x3 -> 6x6
		NewLeakyReLU(0.2),
		NewConv2D(rng, 3, 2, 3, 1, 1),
		NewTanh(),
		NewFlatten(),
		NewDense(rng, 2*6*6, 4),
	)
	x := randBatch(rng, 2, 2, 3, 3)
	labels := randLabels(rng, 2, 4)
	checkParamGradients(t, n, x, labels, rng)
	checkInputGradients(t, n, x, labels, rng)
}

func TestFashionCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewFashionCNN(rng, 1, 8, 5)
	x := randBatch(rng, 2, 1, 8, 8)
	labels := randLabels(rng, 2, 5)
	checkParamGradients(t, n, x, labels, rng)
	checkInputGradients(t, n, x, labels, rng)
}

func TestGeneratorGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// A generator followed by a small classifier head: the exact structure of
	// the DFA-G optimization (gradients flow through the frozen classifier
	// into the generator parameters).
	gen := NewGenerator(rng, 1, 8)
	head := NewNetwork(NewFlatten(), NewDense(rng, 64, 3))
	combined := NewNetwork(append(append([]Layer{}, gen.layers...), head.layers...)...)
	c, h, w := GeneratorLatentSize(8)
	x := randBatch(rng, 2, c, h, w)
	labels := randLabels(rng, 2, 3)
	checkParamGradients(t, combined, x, labels, rng)
	checkInputGradients(t, combined, x, labels, rng)
}

func TestSoftCrossEntropyGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := NewNetwork(NewDense(rng, 5, 4))
	x := randBatch(rng, 3, 5)
	target := UniformTarget(4)

	n.ZeroGrads()
	logits := n.Forward(x, true)
	_, g := CrossEntropySoftPool(nil, logits, target)
	n.backward(g, true, true)

	const eps = 1e-5
	p := n.Params()[0]
	grad := n.Grads()[0]
	for c := 0; c < 10; c++ {
		i := rng.Intn(p.Len())
		orig := p.Data[i]
		p.Data[i] = orig + eps
		lp, _ := CrossEntropySoftPool(nil, n.Forward(x, false), target)
		p.Data[i] = orig - eps
		lm, _ := CrossEntropySoftPool(nil, n.Forward(x, false), target)
		p.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-grad.Data[i]) > 1e-4 {
			t.Errorf("soft CE coord %d: analytic %.8f vs numeric %.8f", i, grad.Data[i], numeric)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := randBatch(rng, 4, 7)
	logits.ScaleInPlace(50) // stress numerical stability
	probs := Softmax(logits)
	for b := 0; b < 4; b++ {
		sum := 0.0
		for j := 0; j < 7; j++ {
			v := at(probs, b, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax prob out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax row %d sums to %v", b, sum)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := &tensor.Tensor{Shape: []int{2, 3}, Data: []float64{100, 0, 0, 0, 100, 0}}
	loss, _ := CrossEntropy(logits, []int{0, 1})
	if loss > 1e-6 {
		t.Fatalf("loss of perfect prediction = %v, want ~0", loss)
	}
	lossWrong, _ := CrossEntropy(logits, []int{1, 0})
	if lossWrong < 10 {
		t.Fatalf("loss of confident wrong prediction = %v, want large", lossWrong)
	}
}

func TestUniformTargetSoftCEAtUniformIsLogL(t *testing.T) {
	// When the model outputs the uniform distribution, the soft CE against
	// the uniform target equals ln(L) — the optimum of DFA-R's objective.
	logits := tensor.New(2, 10) // all-zero logits -> uniform softmax
	loss, _ := CrossEntropySoftPool(nil, logits, UniformTarget(10))
	if math.Abs(loss-math.Log(10)) > 1e-9 {
		t.Fatalf("uniform soft CE = %v, want ln(10) = %v", loss, math.Log(10))
	}
}

func TestPredict(t *testing.T) {
	logits := &tensor.Tensor{Shape: []int{2, 3}, Data: []float64{1, 3, 2, 9, 0, 1}}
	got := PredictInto(nil, logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("PredictInto = %v, want [1 0]", got)
	}
}

func TestWeightVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := NewFashionCNN(rng, 1, 8, 10)
	v := n.WeightVector()
	if len(v) != n.NumParams() {
		t.Fatalf("WeightVector length %d, want %d", len(v), n.NumParams())
	}
	m := NewFashionCNN(rand.New(rand.NewSource(99)), 1, 8, 10)
	if err := m.SetWeightVector(v); err != nil {
		t.Fatal(err)
	}
	v2 := m.WeightVector()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, v[i], v2[i])
		}
	}
	// Networks with equal weights produce equal logits.
	x := randBatch(rng, 2, 1, 8, 8)
	a := n.Forward(x, false)
	b := m.Forward(x, false)
	if !sameTensor(a, b) {
		t.Fatal("equal weights should give identical outputs")
	}
}

func TestSetWeightVectorLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := NewNetwork(NewDense(rng, 3, 2))
	if err := n.SetWeightVector(make([]float64, 5)); err == nil {
		t.Fatal("expected error for wrong-length weight vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := NewFashionCNN(rng, 1, 8, 10)
	c := n.Clone()
	v := n.WeightVector()
	cv := c.WeightVector()
	for i := range v {
		if v[i] != cv[i] {
			t.Fatal("clone should copy weights")
		}
	}
	// Training the clone must not touch the original.
	x := randBatch(rng, 4, 1, 8, 8)
	labels := randLabels(rng, 4, 10)
	TrainBatch(c, NewSGD(0.1, 0), x, labels)
	v2 := n.WeightVector()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("training clone mutated original network")
		}
	}
	// And the clone itself must have changed.
	cv2 := c.WeightVector()
	changed := false
	for i := range cv {
		if cv[i] != cv2[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("training did not change clone weights")
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := NewNetwork(NewDense(rng, 4, 16), NewReLU(), NewDense(rng, 16, 3))
	opt := NewSGD(0.1, 0.9)
	// Linearly separable three-class problem.
	x := tensor.New(30, 4)
	labels := make([]int, 30)
	for i := 0; i < 30; i++ {
		c := i % 3
		labels[i] = c
		for j := 0; j < 4; j++ {
			x.Data[i*4+j] = rng.NormFloat64() * 0.1
		}
		x.Data[i*4+c] += 2.0
	}
	first := lossOf(n, x, labels)
	var last float64
	for e := 0; e < 60; e++ {
		last = TrainBatch(n, opt, x, labels)
	}
	if last > first/4 {
		t.Fatalf("SGD failed to learn: first loss %.4f, last loss %.4f", first, last)
	}
	preds := PredictInto(nil, n.Forward(x, false))
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	if correct < 27 {
		t.Fatalf("only %d/30 correct after training", correct)
	}
}

func TestConvOutSize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tests := []struct {
		in, k, s, p, want int
	}{
		{16, 3, 1, 1, 16},
		{16, 3, 2, 1, 8},
		{8, 3, 2, 1, 4},
		{5, 3, 1, 0, 3},
	}
	for _, tc := range tests {
		c := NewConv2D(rng, 1, 1, tc.k, tc.s, tc.p)
		if got := c.OutSize(tc.in); got != tc.want {
			t.Errorf("Conv OutSize(%d,k%d,s%d,p%d) = %d, want %d", tc.in, tc.k, tc.s, tc.p, got, tc.want)
		}
	}
	ct := NewConvTranspose2D(rng, 1, 1, 4, 2, 1)
	if got := ct.OutSize(4); got != 8 {
		t.Errorf("ConvT OutSize(4) = %d, want 8", got)
	}
	// Conv with stride 2 then convT with stride 2 restores the size.
	if got := ct.OutSize(NewConv2D(rng, 1, 1, 4, 2, 1).OutSize(16)); got != 16 {
		t.Errorf("round trip size = %d, want 16", got)
	}
}

func TestZooArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fash := NewFashionCNN(rng, 1, 16, 10)
	out := fash.Forward(randBatch(rng, 2, 1, 16, 16), false)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("FashionCNN output shape %v", out.Shape)
	}
	deep := NewDeepCNN(rng, 3, 16, 10)
	out = deep.Forward(randBatch(rng, 2, 3, 16, 16), false)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("DeepCNN output shape %v", out.Shape)
	}
	gen := NewGenerator(rng, 3, 16)
	c, h, w := GeneratorLatentSize(16)
	img := gen.Forward(randBatch(rng, 2, c, h, w), false)
	if img.Shape[0] != 2 || img.Shape[1] != 3 || img.Shape[2] != 16 || img.Shape[3] != 16 {
		t.Fatalf("Generator output shape %v", img.Shape)
	}
	for _, v := range img.Data {
		if v < -1 || v > 1 {
			t.Fatalf("generator pixel %v outside [-1,1]", v)
		}
	}
}

func TestLayerCountsMatchPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	countTypes := func(n *Network) (convs, denses int) {
		for _, l := range n.layers {
			switch l.(type) {
			case *Conv2D:
				convs++
			case *Dense:
				denses++
			}
		}
		return convs, denses
	}
	convs, denses := countTypes(NewFashionCNN(rng, 1, 16, 10))
	if convs != 2 || denses != 1 {
		t.Errorf("FashionCNN has %d convs and %d denses, paper uses 2 and 1", convs, denses)
	}
	convs, denses = countTypes(NewDeepCNN(rng, 3, 16, 10))
	if convs != 6 || denses != 2 {
		t.Errorf("DeepCNN has %d convs and %d denses, paper uses 6 and 2", convs, denses)
	}
}
