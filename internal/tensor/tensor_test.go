package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"scalar-ish", []int{1}, 1},
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{3, 16, 16}, 768},
		{"batch", []int{2, 3, 4, 5}, 120},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(tc.shape...)
			if tr.Len() != tc.want {
				t.Fatalf("Len() = %d, want %d", tr.Len(), tc.want)
			}
			for _, v := range tr.Data {
				if v != 0 {
					t.Fatalf("New tensor not zero-filled: %v", v)
				}
			}
		})
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(3, 0)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Data[0] = 99
	b.Shape[0] = 4
	if a.Data[0] != 1 || a.Shape[0] != 2 {
		t.Fatal("Clone shares state with original")
	}
}

func TestFillAndZero(t *testing.T) {
	a := New(4)
	a.Fill(2.5)
	if a.Sum() != 10 {
		t.Fatalf("Sum after Fill = %v, want 10", a.Sum())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatalf("Sum after Zero = %v, want 0", a.Sum())
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(1000)
	a.FillUniform(rng, -0.5, 0.5)
	for _, v := range a.Data {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform sample %v out of [-0.5, 0.5)", v)
		}
	}
	if m := a.Sum() / 1000; math.Abs(m) > 0.05 {
		t.Errorf("uniform mean %v too far from 0", m)
	}
}

func TestFillNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(20000)
	a.FillNormal(rng, 1.0, 2.0)
	mean := a.Sum() / float64(a.Len())
	if math.Abs(mean-1.0) > 0.1 {
		t.Errorf("normal mean %v, want ~1.0", mean)
	}
	varSum := 0.0
	for _, v := range a.Data {
		varSum += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varSum / float64(a.Len()))
	if math.Abs(std-2.0) > 0.1 {
		t.Errorf("normal std %v, want ~2.0", std)
	}
}

func TestScaleInPlace(t *testing.T) {
	a := FromSlice([]float64{5, 7, 9}, 3)
	a.ScaleInPlace(2)
	for i, w := range []float64{10, 14, 18} {
		if a.Data[i] != w {
			t.Fatalf("ScaleInPlace[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := mulNN(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("GemmNN[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dimension mismatch")
		}
	}()
	mulNN(New(2, 3), New(2, 3)) // b holds 6 values, a 3×3 right operand needs 9
}

// transpose returns the transpose of a row-major matrix.
func transpose(a *Tensor) *Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	out := New(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Data[j*rows+i] = a.Data[i*cols+j]
		}
	}
	return out
}

// within reports whether a and b have one shape and every element pair
// differs by at most eps.
func within(a, b *Tensor, eps float64) bool {
	if !slices.Equal(a.Shape, b.Shape) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}

// TestMatMulTransposeConsistency checks that the fused transpose products
// (GemmTN, GemmNT) agree with explicit transposition followed by GemmNN.
func TestMatMulTransposeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 5)
	b := New(4, 6)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)

	want := mulNN(transpose(a), b)
	got := mulTN(a, b)
	if !within(got, want, 1e-12) {
		t.Fatal("GemmTN disagrees with explicit transpose")
	}

	c := New(5, 7)
	d := New(6, 7)
	c.FillNormal(rng, 0, 1)
	d.FillNormal(rng, 0, 1)
	want2 := mulNN(c, transpose(d))
	got2 := mulNT(c, d)
	if !within(got2, want2, 1e-12) {
		t.Fatal("GemmNT disagrees with explicit transpose")
	}
}

// Property: matmul with identity returns the original matrix.
func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(5)
		a := New(m, n)
		a.FillNormal(rng, 0, 1)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Data[i*n+i] = 1
		}
		return within(mulNN(a, id), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A+B)·C == A·C + B·C (distributivity of GemmNN).
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4)
		a := New(m, k)
		b := New(m, k)
		c := New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		c.FillNormal(rng, 0, 1)
		sum := a.Clone()
		for i, v := range b.Data {
			sum.Data[i] += v
		}
		lhs := mulNN(sum, c)
		rhs := mulNN(a, c)
		for i, v := range mulNN(b, c).Data {
			rhs.Data[i] += v
		}
		return within(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
