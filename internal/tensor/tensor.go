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

// fromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly product(shape) elements.
func fromSlice(data []float64, shape ...int) *Tensor {
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

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// fill sets every element of t to v.
func (t *Tensor) fill(v float64) {
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

// sum returns the sum of all elements.
func (t *Tensor) sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// The matrix kernels (the raw-slice GemmNN, GemmTN and GemmNT, and the
// packed-operand GemmPackedA and GemmPanelB beneath them) live in gemm.go;
// the original scalar loops are retained in naive.go as reference
// implementations for equivalence tests.
