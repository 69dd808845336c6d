// Package vec provides flat-vector math over []float64 slices.
//
// In this reproduction, as in the paper (Eq. 1–2), the currency exchanged
// between federated-learning clients and the server is the full model weight
// vector w_i(t+1). Defenses (coordinate-wise medians, trimmed means, Krum
// distances) and attacks (mean shifts, directed deviations) all operate on
// these flat vectors; this package collects those primitives.
package vec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// Add returns a+b as a new vector.
func Add(a, b []float64) []float64 {
	mustSameLen("Add", a, b)
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	mustSameLen("Sub", a, b)
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns s*v as a new vector.
func Scale(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// Axpy performs dst += a*x in place.
func Axpy(dst []float64, a float64, x []float64) {
	mustSameLen("Axpy", dst, x)
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b. Krum-style
// defenses score on squared distances, so this avoids a redundant sqrt.
func SqDist(a, b []float64) float64 {
	mustSameLen("SqDist", a, b)
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Mean returns the coordinate-wise mean of the given vectors. It panics if
// vs is empty or lengths differ. The accumulation runs on the element-wise
// add kernel, which is bit-identical to the plain loop.
func Mean(vs [][]float64) []float64 {
	if len(vs) == 0 {
		panic("vec: Mean of zero vectors")
	}
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		mustSameLen("Mean", out, v)
		tensor.AddSlice(out, v)
	}
	inv := 1.0 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// WeightedMean returns the weighted coordinate-wise mean of the given
// vectors; weights are normalized internally. It panics when vs is empty,
// lengths differ, or the total weight is not positive.
func WeightedMean(vs [][]float64, weights []float64) []float64 {
	if len(vs) == 0 {
		panic("vec: WeightedMean of zero vectors")
	}
	if len(vs) != len(weights) {
		panic(fmt.Sprintf("vec: WeightedMean %d vectors but %d weights", len(vs), len(weights)))
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("vec: WeightedMean total weight must be positive")
	}
	out := make([]float64, len(vs[0]))
	for k, v := range vs {
		mustSameLen("WeightedMean", out, v)
		w := weights[k] / total
		for i := range v {
			out[i] += w * v[i]
		}
	}
	return out
}

// Std returns the coordinate-wise population standard deviation of the given
// vectors.
func Std(vs [][]float64) []float64 {
	mean := Mean(vs)
	out := make([]float64, len(mean))
	for _, v := range vs {
		for i := range v {
			d := v[i] - mean[i]
			out[i] += d * d
		}
	}
	inv := 1.0 / float64(len(vs))
	for i := range out {
		out[i] = math.Sqrt(out[i] * inv)
	}
	return out
}

// SortSmall orders a slice sized like a federated round's per-coordinate
// column: insertion sort for small counts (where it beats the library
// sort's overhead across millions of coordinates), the library sort beyond
// that. Shared by the coordinate-wise aggregation rules.
func SortSmall(col []float64) {
	if len(col) > 32 {
		sort.Float64s(col)
		return
	}
	for i := 1; i < len(col); i++ {
		v := col[i]
		j := i - 1
		for ; j >= 0 && col[j] > v; j-- {
			col[j+1] = col[j]
		}
		col[j+1] = v
	}
}

// Median returns the coordinate-wise median of the given vectors. For an
// even count it averages the two middle values, matching the convention of
// Yin et al.'s coordinate-wise median aggregation.
func Median(vs [][]float64) []float64 {
	if len(vs) == 0 {
		panic("vec: Median of zero vectors")
	}
	n := len(vs)
	out := make([]float64, len(vs[0]))
	col := make([]float64, n)
	for i := range out {
		for k, v := range vs {
			col[k] = v[i]
		}
		SortSmall(col)
		if n%2 == 1 {
			out[i] = col[n/2]
		} else {
			out[i] = 0.5 * (col[n/2-1] + col[n/2])
		}
	}
	return out
}

// TrimmedMean returns the coordinate-wise mean after removing the trim
// largest and trim smallest values in every coordinate. It panics when
// 2*trim >= len(vs).
func TrimmedMean(vs [][]float64, trim int) []float64 {
	n := len(vs)
	if n == 0 {
		panic("vec: TrimmedMean of zero vectors")
	}
	if trim < 0 || 2*trim >= n {
		panic(fmt.Sprintf("vec: TrimmedMean trim=%d invalid for %d vectors", trim, n))
	}
	out := make([]float64, len(vs[0]))
	col := make([]float64, n)
	kept := float64(n - 2*trim)
	for i := range out {
		for k, v := range vs {
			col[k] = v[i]
		}
		SortSmall(col)
		s := 0.0
		for k := trim; k < n-trim; k++ {
			s += col[k]
		}
		out[i] = s / kept
	}
	return out
}

// MeanStdScalar returns the scalar mean and population standard deviation of
// the values.
func MeanStdScalar(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(values)))
	return mean, std
}

// Sign returns the coordinate-wise sign of v (−1, 0 or +1).
func Sign(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		switch {
		case x > 0:
			out[i] = 1
		case x < 0:
			out[i] = -1
		}
	}
	return out
}

// Unit returns v scaled to unit Euclidean norm; the zero vector is returned
// unchanged.
func Unit(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return Clone(v)
	}
	return Scale(v, 1/n)
}

// MaxPairwiseSqDist returns the maximum squared Euclidean distance between
// any two of the given vectors. It returns 0 for fewer than two vectors.
// The pairwise matrix comes from the shared distance-matrix service, so
// the distances are computed in parallel and only once.
func MaxPairwiseSqDist(vs [][]float64) float64 {
	maxD := 0.0
	for _, row := range SqDistMatrix(vs) {
		for _, d := range row {
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// NormInvCDF returns the inverse CDF (quantile function) of the standard
// normal distribution, used by the LIE attack to pick its stealth factor z.
func NormInvCDF(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("vec: NormInvCDF p=%v out of (0,1)", p))
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

func mustSameLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: %s length mismatch %d vs %d", op, len(a), len(b)))
	}
}
