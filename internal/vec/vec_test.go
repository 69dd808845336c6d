package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Add(a, b); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(a, -2); got[0] != -2 || got[2] != -6 {
		t.Fatalf("Scale = %v", got)
	}
	// Originals untouched.
	if a[0] != 1 || b[0] != 4 {
		t.Fatal("inputs mutated")
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 1, 1}
	Axpy(dst, 3, []float64{1, 2, 3})
	want := []float64{4, 7, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	b := []float64{0, 0}
	if got := Norm2(a); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := SqDist(a, b); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	Add([]float64{1}, []float64{1, 2})
}

func TestMean(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	got := Mean(vs)
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("Mean = %v, want [3 4]", got)
	}
}

func TestWeightedMean(t *testing.T) {
	vs := [][]float64{{0, 0}, {10, 10}}
	got := WeightedMean(vs, []float64{1, 3})
	if got[0] != 7.5 || got[1] != 7.5 {
		t.Fatalf("WeightedMean = %v, want [7.5 7.5]", got)
	}
}

func TestWeightedMeanZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive total weight")
		}
	}()
	WeightedMean([][]float64{{1}}, []float64{0})
}

func TestStd(t *testing.T) {
	vs := [][]float64{{1, 10}, {3, 10}}
	got := Std(vs)
	if !almostEqual(got[0], 1, 1e-12) {
		t.Fatalf("Std[0] = %v, want 1", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("Std[1] = %v, want 0", got[1])
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := [][]float64{{5}, {1}, {3}}
	if got := Median(odd); got[0] != 3 {
		t.Fatalf("odd Median = %v, want 3", got[0])
	}
	even := [][]float64{{5}, {1}, {3}, {7}}
	if got := Median(even); got[0] != 4 {
		t.Fatalf("even Median = %v, want 4", got[0])
	}
}

func TestTrimmedMean(t *testing.T) {
	vs := [][]float64{{100}, {1}, {2}, {3}, {-100}}
	if got := TrimmedMean(vs, 1); got[0] != 2 {
		t.Fatalf("TrimmedMean = %v, want 2", got[0])
	}
	// trim=0 equals plain mean.
	if got := TrimmedMean(vs, 0); got[0] != 1.2 {
		t.Fatalf("TrimmedMean(0) = %v, want 1.2", got[0])
	}
}

func TestTrimmedMeanInvalidTrim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for excessive trim")
		}
	}()
	TrimmedMean([][]float64{{1}, {2}}, 1)
}

func TestSignUnit(t *testing.T) {
	s := Sign([]float64{-3, 0, 9})
	if s[0] != -1 || s[1] != 0 || s[2] != 1 {
		t.Fatalf("Sign = %v", s)
	}
	u := Unit([]float64{3, 4})
	if !almostEqual(Norm2(u), 1, 1e-12) {
		t.Fatalf("Unit norm = %v, want 1", Norm2(u))
	}
	z := Unit([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Unit of zero = %v, want zero", z)
	}
}

func TestMaxPairwiseSqDist(t *testing.T) {
	vs := [][]float64{{0}, {3}, {1}}
	if got := MaxPairwiseSqDist(vs); got != 9 {
		t.Fatalf("MaxPairwiseSqDist = %v, want 9", got)
	}
	if got := MaxPairwiseSqDist(vs[:1]); got != 0 {
		t.Fatalf("single vector dist = %v, want 0", got)
	}
}

func TestMeanStdScalar(t *testing.T) {
	m, s := MeanStdScalar([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(m, 5, 1e-12) || !almostEqual(s, 2, 1e-12) {
		t.Fatalf("MeanStdScalar = (%v, %v), want (5, 2)", m, s)
	}
	m, s = MeanStdScalar(nil)
	if m != 0 || s != 0 {
		t.Fatal("MeanStdScalar(nil) should be (0,0)")
	}
}

func TestNormInvCDF(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.8413447, 1.0},  // Φ(1) ≈ 0.8413
		{0.9772499, 2.0},  // Φ(2) ≈ 0.9772
		{0.1586553, -1.0}, // Φ(−1)
	}
	for _, tc := range tests {
		if got := NormInvCDF(tc.p); !almostEqual(got, tc.want, 1e-4) {
			t.Errorf("NormInvCDF(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestNormInvCDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p outside (0,1)")
		}
	}()
	NormInvCDF(1)
}

// Property: the median minimizes the number of strictly greater vs strictly
// smaller values — i.e. it lies between the sorted middle elements.
func TestMedianBetweenExtremesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = []float64{rng.NormFloat64() * 10}
		}
		med := Median(vs)[0]
		sorted := make([]float64, n)
		for i, v := range vs {
			sorted[i] = v[0]
		}
		sort.Float64s(sorted)
		return med >= sorted[0] && med <= sorted[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: trimmed mean is always within [min, max] of the kept values and
// is resistant to a single arbitrarily large outlier when trim >= 1.
func TestTrimmedMeanOutlierResistanceProperty(t *testing.T) {
	f := func(seed int64, outlier float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = []float64{rng.Float64()} // all in [0,1)
		}
		vs[0][0] = 1e6 * (1 + math.Abs(outlier)) // inject outlier
		got := TrimmedMean(vs, 1)[0]
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean is linear — Mean(a·vs) == a·Mean(vs).
func TestMeanLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		d := 1 + rng.Intn(6)
		a := rng.NormFloat64()
		vs := make([][]float64, n)
		scaled := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, d)
			for j := range vs[i] {
				vs[i][j] = rng.NormFloat64()
			}
			scaled[i] = Scale(vs[i], a)
		}
		lhs := Mean(scaled)
		rhs := Scale(Mean(vs), a)
		for j := range lhs {
			if !almostEqual(lhs[j], rhs[j], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Euclidean distance satisfies the triangle inequality.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(8)
		a, b, c := make([]float64, d), make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dist := func(x, y []float64) float64 { return math.Sqrt(SqDist(x, y)) }
		return dist(a, c) <= dist(a, b)+dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
