//go:build amd64 && !purego

package tensor

// AVX2+FMA fast path: the three product variants are lowered onto one 4×8
// register-tile microkernel (gemm_amd64.s) over zero-padded packed panels —
// A once per PackA; a row-major B once per product (packB8), a B that
// arrives in panels (GemmPanelB) never — that writes its C tile in place.
// Packing fixes the depth-ascending accumulation order per output element,
// so the SIMD path is — like the scalar path — bit-identical for any worker
// count; versus the scalar path it differs only by the fused rounding of
// hardware FMA.

//go:noescape
func dgemmKernel4x8(k int, a, b, c *float64, ldc int, acc bool)

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

var simdOn = detectAVX2FMA()

// avx512On selects the two-row distance kernel: AVX-512F on a CPU whose OS
// saves the opmask and all 32 ZMM registers (XCR0 bits 1, 2 and 5..7).
var avx512On = simdOn && detectAVX512F()

func detectAVX512F() bool {
	if xa, _ := xgetbv0(); xa&0xE6 != 0xE6 {
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	return b7&(1<<16) != 0
}

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return false
	}
	if xa, _ := xgetbv0(); xa&6 != 6 {
		return false // OS does not save XMM/YMM state
	}
	_, b7, _, _ := cpuidx(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// packB8 packs B_eff (k×n) into zero-padded 8-column panels, tile-major:
// pb[(t2*k+p)*8+c] = B_eff[p][8*t2+c]. transB selects B_eff = bᵀ with b
// stored n×k.
func packB8(pb, b []float64, k, n int, transB bool) {
	nt := (n + 7) / 8
	if transB {
		for t2 := 0; t2 < nt; t2++ {
			j0 := t2 * 8
			for c := 0; c < 8; c++ {
				j := j0 + c
				dst := pb[t2*k*8+c:]
				if j >= n {
					for p := 0; p < k; p++ {
						dst[p*8] = 0
					}
					continue
				}
				src := b[j*k : j*k+k]
				for p := 0; p < k; p++ {
					dst[p*8] = src[p]
				}
			}
		}
		return
	}
	for t2 := 0; t2 < nt; t2++ {
		j0 := t2 * 8
		w := n - j0
		if w > 8 {
			w = 8
		}
		for p := 0; p < k; p++ {
			dst := pb[(t2*k+p)*8 : (t2*k+p)*8+8]
			src := b[p*n+j0 : p*n+j0+w]
			copy(dst[:w], src)
			for c := w; c < 8; c++ {
				dst[c] = 0
			}
		}
	}
}

// packA4 packs the 4-row tile starting at row i0 of A_eff (m×k) into
// pa[p*4+r] = A_eff[i0+r][p], zero-padding rows past m. transA selects
// A_eff = aᵀ with a stored k×m.
func packA4(pa, a []float64, i0, m, k int, transA bool) {
	rows := m - i0
	if rows > 4 {
		rows = 4
	}
	if transA {
		for p := 0; p < k; p++ {
			src := a[p*m+i0:]
			dst := pa[p*4 : p*4+4]
			for r := 0; r < rows; r++ {
				dst[r] = src[r]
			}
			for r := rows; r < 4; r++ {
				dst[r] = 0
			}
		}
		return
	}
	for r := 0; r < rows; r++ {
		src := a[(i0+r)*k : (i0+r)*k+k]
		for p := 0; p < k; p++ {
			pa[p*4+r] = src[p]
		}
	}
	for r := rows; r < 4; r++ {
		for p := 0; p < k; p++ {
			pa[p*4+r] = 0
		}
	}
}

// packPanels packs every 4-row tile of A_eff (m×k) into one recycled
// buffer, tile t at [t*k*4, (t+1)*k*4).
func packPanels(a []float64, m, k int, transA bool) *[]float64 {
	tiles := rowTiles(m)
	pap := getPackBuf(tiles * k * 4)
	for t := 0; t < tiles; t++ {
		packA4((*pap)[t*k*4:(t+1)*k*4], a, t*4, m, k, transA)
	}
	return pap
}

// panelTiles runs the 4-row tiles [lo, hi) of a product whose A was packed
// by packPanels, with B in packB8's layout, on the 4×8 microkernel; acc
// accumulates onto the existing C values. Full 4×8 tiles are computed in
// place in C; a tile cut by the last rows or columns goes through a
// zero-padded staging copy so the kernel never touches memory outside the
// m×n block.
func (p product) panelTiles(lo, hi, _ int) {
	c, pa, pb, acc := p.c, *p.pa.panels, p.b, p.acc
	m, k, n := p.pa.m, p.pa.k, p.pa.n
	nt := (n + 7) / 8
	for t := lo; t < hi; t++ {
		i0 := t * 4
		rows := min(m-i0, 4)
		pat := &pa[t*k*4]
		for t2 := 0; t2 < nt; t2++ {
			j0 := t2 * 8
			w := min(n-j0, 8)
			ctile := c[i0*n+j0:]
			if rows == 4 && w == 8 {
				dgemmKernel4x8(k, pat, &pb[t2*k*8], &ctile[0], n, acc)
				continue
			}
			var ct [32]float64
			if acc {
				for r := 0; r < rows; r++ {
					copy(ct[r*8:r*8+w], ctile[r*n:r*n+w])
				}
			}
			dgemmKernel4x8(k, pat, &pb[t2*k*8], &ct[0], 8, acc)
			for r := 0; r < rows; r++ {
				copy(ctile[r*n:r*n+w], ct[r*8:r*8+w])
			}
		}
	}
}

// simdWorthIt reports whether the packing overhead of the SIMD path is
// amortized for this problem shape.
func simdWorthIt(m, k, n int) bool {
	return simdOn && m*k*n >= 2048
}

//go:noescape
func avxSqDistBlocks(a, b, sums *float64, blocks int)

//go:noescape
func avxSqDist3Blocks(a, b0, b1, b2, sums *float64, blocks int)

//go:noescape
func avx512SqDist2x4Blocks(a0, a1, b0, b1, b2, b3, sums *float64, blocks int)

//go:noescape
func avxDotBlocks(a, b, sums *float64, blocks int)

//go:noescape
func avxAddBlocks(dst, src *float64, blocks int)

func sqDistSIMD(a, b []float64) float64 {
	blocks := len(a) >> 4
	var sums [4]float64
	avxSqDistBlocks(&a[0], &b[0], &sums[0], blocks)
	s := ((sums[0] + sums[1]) + sums[2]) + sums[3]
	return s + sqDistScalar(a, b, blocks<<4)
}

// sqDist3SIMD is three sqDistSIMD calls sharing their a operand: the same
// lanes, the same reduction and the same scalar tail per pair.
func sqDist3SIMD(a, b0, b1, b2 []float64) (d0, d1, d2 float64) {
	blocks := len(a) >> 4
	var sums [12]float64
	avxSqDist3Blocks(&a[0], &b0[0], &b1[0], &b2[0], &sums[0], blocks)
	i := blocks << 4
	d0 = ((sums[0] + sums[1]) + sums[2]) + sums[3] + sqDistScalar(a, b0, i)
	d1 = ((sums[4] + sums[5]) + sums[6]) + sums[7] + sqDistScalar(a, b1, i)
	d2 = ((sums[8] + sums[9]) + sums[10]) + sums[11] + sqDistScalar(a, b2, i)
	return d0, d1, d2
}

// sqDist2x4SIMD adds the distances of rows a0, a1 to partners bs[0:4] to
// out0[0:4] and out1[0:4], with sqDistSIMD's reduction and scalar tail per
// pair.
func sqDist2x4SIMD(a0, a1 []float64, bs [][]float64, out0, out1 []float64) {
	blocks := len(a0) >> 4
	var sums [32]float64
	avx512SqDist2x4Blocks(&a0[0], &a1[0], &bs[0][0], &bs[1][0], &bs[2][0], &bs[3][0], &sums[0], blocks)
	for c, b := range bs[:4] {
		s := sums[4*c : 4*c+4]
		out0[c] += ((s[0] + s[1]) + s[2]) + s[3] + sqDistScalar(a0, b, blocks<<4)
		s = sums[16+4*c : 20+4*c]
		out1[c] += ((s[0] + s[1]) + s[2]) + s[3] + sqDistScalar(a1, b, blocks<<4)
	}
}

func dotSIMD(a, b []float64) float64 {
	blocks := len(a) >> 4
	var sums [4]float64
	avxDotBlocks(&a[0], &b[0], &sums[0], blocks)
	s := ((sums[0] + sums[1]) + sums[2]) + sums[3]
	return s + dotScalar(a, b, blocks<<4)
}

func addSIMD(dst, src []float64) {
	blocks := len(dst) >> 4
	avxAddBlocks(&dst[0], &src[0], blocks)
	addScalar(dst, src, blocks<<4)
}
