//go:build !amd64 || purego

package tensor

// avxSparseDot4 is unreachable on this build: simdOn is constant false, so
// SparseDot4 always takes the scalar path.
func avxSparseDot4(idx *int32, val *float64, k int, rows, out *float64) {
	panic("tensor: avxSparseDot4 unavailable without AVX2")
}
