// Package tensor implements a small dense-tensor library used as the
// numerical substrate of the reproduction: row-major float64 tensors with the
// element-wise, matrix and convolution operations required to train the
// paper's CNN classifiers and the DFA generator networks.
//
// The package is deliberately minimal: shapes are explicit, there is no
// broadcasting beyond what the neural-network layers need, and all operations
// are deterministic given a seeded *rand.Rand.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 tensor. The zero value is an empty
// tensor; use New or the constructors below to create usable tensors.
type Tensor struct {
	// Shape holds the extent of every dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == product(Shape).
	Data []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly product(shape) elements.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= t.Shape[d] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[d] + i
	}
	return off
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillUniform fills t with samples drawn uniformly from [lo, hi).
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// FillNormal fills t with Gaussian samples of the given mean and standard
// deviation.
func (t *Tensor) FillNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = mean + rng.NormFloat64()*std
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxIndex returns the index of the largest element (ties resolve to the
// first occurrence). It panics on an empty tensor.
func (t *Tensor) MaxIndex() int {
	if len(t.Data) == 0 {
		panic("tensor: MaxIndex of empty tensor")
	}
	best, bestV := 0, t.Data[0]
	for i, v := range t.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Norm2 returns the Euclidean norm of all elements.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether two tensors have identical shapes and element-wise
// difference within eps.
func Equal(a, b *Tensor, eps float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}

// The matrix kernels (the raw-slice GemmNN, GemmTN and GemmNT, and the
// packed-operand GemmPackedA and GemmPanelB beneath them) live in gemm.go;
// the original scalar loops are retained in naive.go as reference
// implementations for equivalence tests.
