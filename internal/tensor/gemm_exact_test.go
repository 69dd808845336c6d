package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// exactGemm is the bit-exact reference of every GEMM entry point on every
// tier: each output element is one fused chain over ascending depth
// (math.FMA rounds once per step, like VFMADD231PD), starting from the
// existing C value when acc is set and from +0 otherwise. at and bt read
// element (i, p) of A_eff and (p, j) of B_eff from the caller's storage
// order.
func exactGemm(c []float64, m, k, n int, acc bool, at, bt func(i, j int) float64) []float64 {
	want := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if acc {
				s = c[i*n+j]
			}
			for p := 0; p < k; p++ {
				s = math.FMA(at(i, p), bt(p, j), s)
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

// TestGEMMBitExact holds GemmNN, GemmTN, GemmNT and the two PackA entry
// points (row-major B and panelled B) to the one fused reference bit for
// bit, on every tier the build has: the 4×8 microkernel where the CPU has
// it, and always the scalar tile, with the microkernel switched off. It
// covers every small shape (each edge-tile combination of both tiles) and
// the model shapes, accumulating and not, serial and fanned out. C sits
// inside a buffer of sentinels, so a tile stored outside the m×n block
// fails; the guard-page placement (gemmGuarded) catches a read past any
// operand.
func TestGEMMBitExact(t *testing.T) {
	tiers := []string{"scalar 2x4 FMA tile"}
	if simdOn {
		tiers = append([]string{"avx2 in-place 4x8 microkernel"}, tiers...)
	}
	defer func(on bool) { simdOn = on }(simdOn)
	for _, tier := range tiers {
		t.Log("gemm tier:", tier)
		simdOn = tier != "scalar 2x4 FMA tile"
		gemmGuarded(t)
		gemmExact(t)
	}
}

// gemmExact is TestGEMMBitExact's check of every entry point on the tier
// simdOn selects.
func gemmExact(t *testing.T) {
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
				check("GemmNN", exactGemm(c0, m, k, n, acc, aNN, bNN), func(c []float64) { GemmNN(c, a, b, m, k, n, acc) })
				check("GemmTN", exactGemm(c0, m, k, n, acc, aTN, bNN), func(c []float64) { GemmTN(c, a, b, m, k, n, acc) })
				check("GemmNT", exactGemm(c0, m, k, n, acc, aNN, bNT), func(c []float64) { GemmNT(c, a, b, m, k, n, acc) })

				// One PackA, several products: the descriptor serves every
				// right operand.
				for _, trans := range []bool{false, true} {
					at := aNN
					if trans {
						at = aTN
					}
					pa := PackA(a, m, k, n, trans)
					name := fmt.Sprintf("GemmPackedA(trans=%v)", trans)
					check(name, exactGemm(c0, m, k, n, acc, at, bNN), func(c []float64) { GemmPackedA(c, pa, b, false, acc) })
					check(name+" second operand", exactGemm(c0, m, k, n, acc, at, func(p, j int) float64 { return b2[p*n+j] }),
						func(c []float64) { GemmPackedA(c, pa, b2, false, acc) })
					if !trans {
						check(name+" transB", exactGemm(c0, m, k, n, acc, at, bNT), func(c []float64) { GemmPackedA(c, pa, b, true, acc) })
						// The panelled right operand in both roles a convolution
						// gives it: the patch matrix and its transpose.
						pb, pbT := refPanelB(k, n, bNN), refPanelB(k, n, bNT)
						check("GemmPanelB", exactGemm(c0, m, k, n, acc, at, bNN), func(c []float64) { GemmPanelB(c, pa, pb, acc) })
						check("GemmPanelB transposed source", exactGemm(c0, m, k, n, acc, at, bNT), func(c []float64) { GemmPanelB(c, pa, pbT, acc) })
					}
				}
			}
		}
	}
}

// gemmGuarded is TestGEMMBitExact's guard-page placement: for every (m, k,
// n) in 1…17 and each entry point, accumulating and not, A, B and C each
// end flush against a PROT_NONE page, so reading past an operand — a tile
// short of rows that did not repeat its last real row, a ragged B panel
// read in place — faults. A second pass poisons A_eff's last real row with
// NaN and ±Inf: every other row must still equal the reference bit for
// bit, so the repeated row's outputs never leak, and the poisoned row must
// read NaN.
func gemmGuarded(t *testing.T) {
	ga, gb, gc := guardedFloats(t), guardedFloats(t), guardedFloats(t)
	if ga == nil {
		t.Log("guard pages unavailable here: placement skipped")
		return
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer SetWorkers(0)
	SetWorkers(1) // a fault must happen on this goroutine to be recovered
	rng := rand.New(rand.NewSource(15))
	entries := []struct {
		name           string
		transA, transB bool
		run            func(c, a, b []float64, m, k, n int, acc bool)
	}{
		{"GemmNN", false, false, GemmNN},
		{"GemmTN", true, false, GemmTN},
		{"GemmNT", false, true, GemmNT},
		{"GemmPanelB", false, false, func(c, a, pb []float64, m, k, n int, acc bool) { GemmPanelB(c, PackA(a, m, k, n, false), pb, acc) }},
	}
	for m := 1; m <= 17; m++ {
		for k := 1; k <= 17; k++ {
			for n := 1; n <= 17; n++ {
				for _, e := range entries {
					for _, acc := range []bool{false, true} {
						for _, poison := range []bool{false, true} {
							name := fmt.Sprintf("%s %dx%dx%d acc=%v poison=%v", e.name, m, k, n, acc, poison)
							a := ga(m * k)
							at := func(i, p int) float64 { return a[i*k+p] }
							if e.transA {
								at = func(i, p int) float64 { return a[p*m+i] }
							}
							for i := range a {
								a[i] = rng.NormFloat64()
							}
							if poison {
								for p := 0; p < k; p++ {
									v := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[p%3]
									if e.transA {
										a[p*m+m-1] = v
									} else {
										a[(m-1)*k+p] = v
									}
								}
							}
							bv := make([]float64, k*n)
							for i := range bv {
								bv[i] = rng.NormFloat64()
							}
							bt := func(p, j int) float64 { return bv[p*n+j] }
							if e.transB {
								bt = func(p, j int) float64 { return bv[j*k+p] }
							}
							b := gb(len(bv))
							if e.name == "GemmPanelB" {
								b = gb(PanelBLen(k, n))
								copy(b, refPanelB(k, n, bt))
							} else {
								copy(b, bv)
							}
							c0 := make([]float64, m*n)
							for i := range c0 {
								c0[i] = rng.NormFloat64()
							}
							c := gc(m * n)
							copy(c, c0)
							want := exactGemm(c0, m, k, n, acc, at, bt)
							func() {
								defer func() {
									if r := recover(); r != nil {
										t.Fatalf("%s: %v", name, r)
									}
								}()
								e.run(c, a, b, m, k, n, acc)
							}()
							for i, v := range c {
								if poison && i/n == m-1 {
									if !math.IsNaN(v) {
										t.Fatalf("%s: poisoned row gave C[%d] = %v, want NaN", name, i, v)
									}
									continue
								}
								if math.Float64bits(v) != math.Float64bits(want[i]) {
									t.Fatalf("%s: C[%d] = %x, want %x", name, i, math.Float64bits(v), math.Float64bits(want[i]))
								}
							}
						}
					}
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
