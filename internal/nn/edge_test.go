package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestCrossEntropyLabelOutOfRangePanics(t *testing.T) {
	logits := tensor.New(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	CrossEntropy(logits, []int{7})
}

func TestCrossEntropyLabelCountMismatchPanics(t *testing.T) {
	logits := tensor.New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label count mismatch")
		}
	}()
	CrossEntropy(logits, []int{0})
}

func TestSoftmaxRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank-3 logits")
		}
	}()
	Softmax(tensor.New(2, 3, 4))
}

func TestCrossEntropySoftTargetLengthPanics(t *testing.T) {
	logits := tensor.New(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length soft target")
		}
	}()
	CrossEntropySoftPool(nil, logits, []float64{0.5, 0.5})
}

func TestConvChannelMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 3, 4, 3, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input channels")
		}
	}()
	c.Forward(tensor.New(1, 2, 8, 8), false)
}

// An image the kernel does not fit is a geometry error named as one, on the
// heap and in an arena alike — also where truncating division would have
// made the output size look positive (2+0−3 over stride 2).
func TestConvKernelLargerThanImagePanics(t *testing.T) {
	for _, stride := range []int{1, 2} {
		for _, pool := range []*tensor.Pool{nil, tensor.NewPool()} {
			net := NewNetwork(NewConv2D(rand.New(rand.NewSource(1)), 1, 4, 3, stride, 0))
			net.SetScratch(pool)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "nn: conv output size 0x0 not positive") {
						t.Errorf("stride %d, pooled %v: panic %q", stride, pool != nil, msg)
					}
				}()
				net.Forward(tensor.New(1, 1, 2, 2), false)
			}()
		}
	}
}

func TestConvInvalidConfigPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero stride")
		}
	}()
	NewConv2D(rng, 1, 1, 3, 0, 1)
}

func TestConvTransposeInvalidConfigPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative padding")
		}
	}()
	NewConvTranspose2D(rng, 1, 1, 3, 1, -1)
}

// Softmax is invariant to adding a constant to every logit of a row.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64, shiftRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		shift := math.Mod(shiftRaw, 100)
		logits := tensor.New(2, 5)
		logits.FillNormal(rng, 0, 3)
		shifted := logits.Clone()
		for j := 0; j < 5; j++ {
			shifted.Data[j] += shift
		}
		a := Softmax(logits)
		b := Softmax(shifted)
		for j := 0; j < 5; j++ {
			if math.Abs(a.Data[j]-b.Data[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Gradient of CrossEntropy sums to zero per row (softmax minus one-hot).
func TestCrossEntropyGradientRowsSumToZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		batch, classes := 1+rng.Intn(4), 2+rng.Intn(6)
		logits := tensor.New(batch, classes)
		logits.FillNormal(rng, 0, 2)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		_, grad := CrossEntropy(logits, labels)
		for b := 0; b < batch; b++ {
			sum := 0.0
			for j := 0; j < classes; j++ {
				sum += at(grad, b, j)
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// On a fixed gradient, momentum must accumulate velocity: the second
	// step moves farther than the first.
	rng := rand.New(rand.NewSource(4))
	n := NewNetwork(NewDense(rng, 1, 1))
	opt := NewSGD(0.1, 0.9)
	w := n.Params()[0]
	pos0 := w.Data[0]
	step := func() float64 {
		n.ZeroGrads()
		n.Grads()[0].Data[0] = 1 // constant gradient
		n.Grads()[1].Data[0] = 0
		before := w.Data[0]
		opt.Step(n)
		return before - w.Data[0]
	}
	d1 := step()
	d2 := step()
	if d2 <= d1 {
		t.Fatalf("momentum should accelerate: step1 %v, step2 %v", d1, d2)
	}
	if w.Data[0] >= pos0 {
		t.Fatal("descent should reduce the parameter under positive gradient")
	}
}

func TestSGDStepZeroesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork(NewDense(rng, 2, 2))
	x := tensor.New(1, 2)
	x.FillNormal(rng, 0, 1)
	logits := n.Forward(x, true)
	_, g := CrossEntropy(logits, []int{0})
	n.Backward(g)
	NewSGD(0.1, 0).Step(n)
	for _, gr := range n.Grads() {
		for _, v := range gr.Data {
			if v != 0 {
				t.Fatal("gradients not zeroed after Step")
			}
		}
	}
}

func TestFashionCNNSizePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size not divisible by 4")
		}
	}()
	NewFashionCNN(rng, 1, 10, 10)
}

func TestDeepCNNSizePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size not divisible by 8")
		}
	}()
	NewDeepCNN(rng, 3, 12, 10)
}

func TestGeneratorLatentSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size not divisible by 4")
		}
	}()
	GeneratorLatentSize(10)
}

// Training in train=false mode must not be possible: forward without
// caching then backward panics (nil lastInput) — documents the contract
// that Backward requires a train-mode Forward.
func TestBackwardWithoutTrainForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, 2, 2)
	x := tensor.New(1, 2)
	d.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Backward without train-mode Forward")
		}
	}()
	d.Backward(tensor.New(1, 2))
}
