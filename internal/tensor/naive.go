package tensor

import "fmt"

// This file retains the original scalar-loop matrix kernels as reference
// implementations. The optimized kernels in gemm.go are validated against
// them by randomized equivalence tests.

// NaiveMatMul computes the matrix product of a (m×k) and b (k×n) into a new
// m×n tensor with the straightforward triple loop.
//
//lint:allow deadexport reference kernel the GEMM equivalence tests check against
func NaiveMatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 tensors, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// NaiveMatMulTransA computes aᵀ·b where a is k×m and b is k×n, yielding m×n,
// with the straightforward triple loop.
//
//lint:allow deadexport reference kernel the GEMM equivalence tests check against
func NaiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA dimension mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// NaiveMatMulTransB computes a·bᵀ where a is m×k and b is n×k, yielding m×n,
// with the straightforward triple loop.
//
//lint:allow deadexport reference kernel the GEMM equivalence tests check against
func NaiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB dimension mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}
