package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// relDiff returns the largest element-wise difference between a and b
// relative to the magnitude of the values involved.
func relDiff(t *testing.T, a, b *Tensor) float64 {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("length mismatch %d vs %d", len(a.Data), len(b.Data))
	}
	worst := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		scale := math.Max(1, math.Max(math.Abs(a.Data[i]), math.Abs(b.Data[i])))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.FillNormal(rng, 0, 1)
	return t
}

// The products below run the raw entry points into a fresh m×n tensor, so
// they compare directly against the naive references' tensors.

// mulNN returns a·b for a m×k and b k×n through GemmNN.
func mulNN(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	GemmNN(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}

// mulTN returns aᵀ·b for a k×m and b k×n through GemmTN.
func mulTN(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	GemmTN(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}

// mulNT returns a·bᵀ for a m×k and b n×k through GemmNT.
func mulNT(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	GemmNT(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}

// TestGEMMEquivalence checks the blocked kernels against the retained naive
// references over randomized shapes, including single-row/column edges and
// shapes not divisible by the 4×4 tile.
func TestGEMMEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {1, 7, 1}, {4, 4, 4}, {5, 3, 9}, {8, 16, 10}, {13, 29, 7}, {64, 9, 33}, {31, 77, 12}}
	for i := 0; i < 20; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		if d := relDiff(t, mulNN(a, b), NaiveMatMul(a, b)); d > 1e-9 {
			t.Errorf("GemmNN %v rel diff %g", s, d)
		}
		at := randTensor(rng, k, m)
		if d := relDiff(t, mulTN(at, b), NaiveMatMulTransA(at, b)); d > 1e-9 {
			t.Errorf("GemmTN %v rel diff %g", s, d)
		}
		bt := randTensor(rng, n, k)
		if d := relDiff(t, mulNT(a, bt), NaiveMatMulTransB(a, bt)); d > 1e-9 {
			t.Errorf("GemmNT %v rel diff %g", s, d)
		}
	}
}

// TestGEMMAccumulate checks that the accumulate mode adds the product on
// top of the destination's existing values.
func TestGEMMAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 9, 13, 6
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	init := randTensor(rng, m, n)
	check := func(name string, run func(c []float64), want *Tensor) {
		t.Helper()
		dst := init.Clone()
		run(dst.Data)
		for i, v := range init.Data {
			want.Data[i] += v
		}
		if d := relDiff(t, dst, want); d > 1e-9 {
			t.Errorf("%s rel diff %g", name, d)
		}
	}

	check("GemmNN acc", func(c []float64) { GemmNN(c, a.Data, b.Data, m, k, n, true) }, NaiveMatMul(a, b))
	at := randTensor(rng, k, m)
	check("GemmTN acc", func(c []float64) { GemmTN(c, at.Data, b.Data, m, k, n, true) }, NaiveMatMulTransA(at, b))
	bt := randTensor(rng, n, k)
	check("GemmNT acc", func(c []float64) { GemmNT(c, a.Data, bt.Data, m, k, n, true) }, NaiveMatMulTransB(a, bt))
}

// TestGEMMScalarPathEquivalence re-runs the randomized equivalence checks
// with the SIMD fast path disabled, so the scalar blocked kernels stay
// covered on machines where the fast path would otherwise always win.
func TestGEMMScalarPathEquivalence(t *testing.T) {
	old := simdOn
	simdOn = false
	defer func() { simdOn = old }()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		if d := relDiff(t, mulNN(a, b), NaiveMatMul(a, b)); d > 1e-9 {
			t.Errorf("scalar GemmNN %dx%dx%d rel diff %g", m, k, n, d)
		}
		at := randTensor(rng, k, m)
		if d := relDiff(t, mulTN(at, b), NaiveMatMulTransA(at, b)); d > 1e-9 {
			t.Errorf("scalar GemmTN %dx%dx%d rel diff %g", m, k, n, d)
		}
		bt := randTensor(rng, n, k)
		if d := relDiff(t, mulNT(a, bt), NaiveMatMulTransB(a, bt)); d > 1e-9 {
			t.Errorf("scalar GemmNT %dx%dx%d rel diff %g", m, k, n, d)
		}
	}
}

// TestGEMMWorkerCountInvariance asserts the parallel row partitioning is
// invisible in the output bits: any worker count produces the identical
// result, which the federated determinism guarantee rests on.
func TestGEMMWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 67, 33)
	b := randTensor(rng, 33, 21)
	defer SetWorkers(0)
	SetWorkers(1)
	serial := mulNN(a, b)
	for _, w := range []int{2, 3, 8, 64} {
		SetWorkers(w)
		got := mulNN(a, b)
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v (bit-exact)", w, i, got.Data[i], serial.Data[i])
			}
		}
	}
}

// TestMatMulIntoShapeChecks exercises the raw entry points' validation: a
// destination too short for the m×n product panics.
func TestMatMulIntoShapeChecks(t *testing.T) {
	a := New(3, 4)
	b := New(4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a short destination")
		}
	}()
	GemmNN(New(3, 4).Data, a.Data, b.Data, 3, 4, 5, false)
}

// TestParallelForCoversRange checks every index is visited exactly once for
// a variety of range/grain combinations.
func TestParallelForCoversRange(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 5} {
		SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 100} {
				counts := make([]int32, n)
				ParallelFor(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						counts[i]++
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, c)
					}
				}
			}
		}
	}
}
