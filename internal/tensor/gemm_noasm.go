//go:build !amd64 || purego

package tensor

// Non-amd64 (or purego) builds run the scalar twins of every kernel.

var simdOn, avx512On = false, false

func packB8(pb, b []float64, k, n int, transB bool) { panic("tensor: packB8 unavailable") }

func (p product) kernelTiles(lo, hi, _ int) { panic("tensor: kernelTiles unavailable") }

func sqDistSIMD(a, b []float64) float64 { panic("tensor: sqDistSIMD unavailable") }

func sqDist3SIMD(a, b0, b1, b2 []float64) (d0, d1, d2 float64) {
	panic("tensor: sqDist3SIMD unavailable")
}

func sqDist2x4SIMD(a0, a1 []float64, bs [][]float64, out0, out1 []float64) {
	panic("tensor: sqDist2x4SIMD unavailable")
}

func dotSIMD(a, b []float64) float64 { panic("tensor: dotSIMD unavailable") }

func addSIMD(dst, src []float64) { panic("tensor: addSIMD unavailable") }
