package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// exactGemm is the bit-exact reference of every GEMM entry point: each
// output element is one chain over ascending depth, starting from the
// existing C value when acc is set and from +0 otherwise. Where the
// microkernel runs the chain is fused (math.FMA rounds once per step, like
// VFMADD231PD); where the scalar tiles run it is a rounded product and a
// rounded sum per step. at and bt read element (i, p) of A_eff and (p, j)
// of B_eff from the caller's storage order.
func exactGemm(c []float64, m, k, n int, acc, fused bool, at, bt func(i, j int) float64) []float64 {
	want := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if acc {
				s = c[i*n+j]
			}
			for p := 0; p < k; p++ {
				if fused {
					s = math.FMA(at(i, p), bt(p, j), s)
				} else {
					s += at(i, p) * bt(p, j)
				}
			}
			want[i*n+j] = s
		}
	}
	return want
}

// refPanelB writes B_eff (k×n) in GemmPanelB's layout from the formula in
// its comment, one element at a time; the buffer is poisoned first so a
// padding column left unwritten would show.
func refPanelB(k, n int, bt func(p, j int) float64) []float64 {
	pb := make([]float64, PanelBLen(k, n))
	for i := range pb {
		pb[i] = math.NaN()
	}
	for t := 0; t*8 < n; t++ {
		for p := 0; p < k; p++ {
			for c := 0; c < 8; c++ {
				v := 0.0
				if 8*t+c < n {
					v = bt(p, 8*t+c)
				}
				pb[(t*k+p)*8+c] = v
			}
		}
	}
	return pb
}

// modelShapes are the (m, k, n) the zoo's layers run per sample or per
// batch: FashionCNN's two convolutions, DeepCNN's first and last, and
// DeepCNN's first dense layer at batch 16.
var modelShapes = [][3]int{{8, 9, 64}, {16, 72, 16}, {8, 27, 256}, {32, 288, 4}, {16, 256, 10}}

// TestGEMMBitExact holds GemmNN, GemmTN, GemmNT and the two packed-A entry
// points (row-major B and panelled B) to the reference bit for bit, over every small shape (each edge-tile
// combination of the 4×8 microkernel and of the 4×4 scalar tiles) and the
// model shapes, accumulating and not, serial and fanned out. C sits inside
// a buffer of sentinels, so a tile stored outside the m×n block fails.
func TestGEMMBitExact(t *testing.T) {
	var shapes [][3]int
	step := 1
	if testing.Short() {
		step = 3 // 1, 4, 7, … 16: still every tile remainder
	}
	for m := 1; m <= 17; m += step {
		for k := 1; k <= 17; k += step {
			for n := 1; n <= 17; n += step {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// 13…17 cubed crosses the microkernel's threshold; the model shapes and
	// these make sure both kinds of tile are held to their reference.
	shapes = append(shapes, modelShapes...)
	shapes = append(shapes, [3]int{17, 17, 17}, [3]int{9, 33, 15}, [3]int{5, 64, 9})

	const guard = 40 // sentinel floats on each side of C
	sentinel := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	rng := rand.New(rand.NewSource(14))
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng, m, k).Data  // m×k, or k×m read transposed
			b := randTensor(rng, k, n).Data  // k×n, or n×k read transposed
			b2 := randTensor(rng, k, n).Data // a second right operand for the shared panels
			c0 := randTensor(rng, m, n).Data
			fused := simdWorthIt(m, k, n)
			for _, acc := range []bool{false, true} {
				check := func(name string, want []float64, run func(c []float64)) {
					t.Helper()
					buf := make([]float64, guard+m*n+guard)
					for i := range buf {
						buf[i] = sentinel
					}
					c := buf[guard : guard+m*n]
					copy(c, c0)
					run(c)
					for i, v := range buf {
						in := i >= guard && i < guard+m*n
						if !in && math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("%s %v acc=%v workers=%d: wrote %v at offset %d outside C", name, s, acc, workers, v, i-guard)
						}
						if in && math.Float64bits(v) != math.Float64bits(want[i-guard]) {
							t.Fatalf("%s %v acc=%v workers=%d: C[%d] = %x, want %x", name, s, acc, workers,
								i-guard, math.Float64bits(v), math.Float64bits(want[i-guard]))
						}
					}
				}
				aNN := func(i, p int) float64 { return a[i*k+p] }
				aTN := func(i, p int) float64 { return a[p*m+i] }
				bNN := func(p, j int) float64 { return b[p*n+j] }
				bNT := func(p, j int) float64 { return b[j*k+p] }
				check("GemmNN", exactGemm(c0, m, k, n, acc, fused, aNN, bNN), func(c []float64) { GemmNN(c, a, b, m, k, n, acc) })
				check("GemmTN", exactGemm(c0, m, k, n, acc, fused, aTN, bNN), func(c []float64) { GemmTN(c, a, b, m, k, n, acc) })
				check("GemmNT", exactGemm(c0, m, k, n, acc, fused, aNN, bNT), func(c []float64) { GemmNT(c, a, b, m, k, n, acc) })

				// One PackA, several products: the panels must survive the
				// first multiplication unchanged.
				for _, trans := range []bool{false, true} {
					at := aNN
					if trans {
						at = aTN
					}
					pa := PackA(a, m, k, n, trans)
					name := fmt.Sprintf("GemmPackedA(trans=%v)", trans)
					check(name, exactGemm(c0, m, k, n, acc, fused, at, bNN), func(c []float64) { GemmPackedA(c, pa, b, false, acc) })
					check(name+" second operand", exactGemm(c0, m, k, n, acc, fused, at, func(p, j int) float64 { return b2[p*n+j] }),
						func(c []float64) { GemmPackedA(c, pa, b2, false, acc) })
					if !trans {
						check(name+" transB", exactGemm(c0, m, k, n, acc, fused, at, bNT), func(c []float64) { GemmPackedA(c, pa, b, true, acc) })
						// The panelled right operand in both roles a convolution
						// gives it: the patch matrix and its transpose.
						pb, pbT := refPanelB(k, n, bNN), refPanelB(k, n, bNT)
						check("GemmPanelB", exactGemm(c0, m, k, n, acc, fused, at, bNN), func(c []float64) { GemmPanelB(c, pa, pb, acc) })
						check("GemmPanelB transposed source", exactGemm(c0, m, k, n, acc, fused, at, bNT), func(c []float64) { GemmPanelB(c, pa, pbT, acc) })
					}
					pa.Release()
				}
			}
		}
	}
}

// TestGemmPackedARejectsDoubleTranspose pins the one product shape each
// packed entry point refuses, on every build.
func TestGemmPackedARejectsDoubleTranspose(t *testing.T) {
	a, b, c := make([]float64, 6), make([]float64, PanelBLen(3, 2)), make([]float64, 4)
	pa := PackA(a, 2, 3, 2, true)
	defer pa.Release()
	for name, run := range map[string]func(){
		"GemmPackedA accepted Aᵀ·Bᵀ":             func() { GemmPackedA(c, pa, b, true, false) },
		"GemmPanelB accepted a transposed PackA": func() { GemmPanelB(c, pa, b, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error(name)
				}
			}()
			run()
		}()
	}
}
