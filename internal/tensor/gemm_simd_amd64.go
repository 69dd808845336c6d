//go:build amd64 && !purego

package tensor

// AVX2+FMA fast path: the three product variants are lowered onto one 4×8
// register-tile microkernel (gemm_amd64.s) that reads both operands where
// they lie — A row-major or transposed, B row-major or in 8-column panels
// (GemmPanelB's, or the ones packB8 writes for a transposed B and for a B
// narrower than one panel) — and writes its C tile in place.
// Every output element is one depth-ascending FMA chain, the chain the
// scalar tile (scalarTiles) computes with math.FMA, so the SIMD and scalar
// builds return the same bits.

//go:noescape
func dgemmKernel4x8(k int, a0, a1, a2, a3 *float64, lda int, b *float64, ldb int, c *float64, ldc int, acc bool)

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
// pb[(t*k+p)*8+c] = B_eff[p][8t+c]. transB selects B_eff = bᵀ with b
// stored n×k.
func packB8(pb, b []float64, k, n int, transB bool) {
	for j := 0; j < (n+7)&^7; j++ {
		dst := pb[(j>>3)*k*8+j&7:]
		switch {
		case j >= n:
			for p := 0; p < k; p++ {
				dst[p*8] = 0
			}
		case transB:
			for p, v := range b[j*k : j*k+k] {
				dst[p*8] = v
			}
		default:
			for p := 0; p < k; p++ {
				dst[p*8] = b[p*n+j]
			}
		}
	}
}

// kernelTiles runs the 4-row tiles [lo, hi) of the product on the 4×8
// microkernel; acc accumulates onto the existing C values. A is read in
// place, a tile short of rows repeating its last real row. B is read from
// its panels with panelB, in place otherwise, where a ragged last panel is
// read as the 8 columns that end at n (n ≥ 8 here). Full 4×8 tiles are
// computed in place in C; a tile cut by the last rows or columns goes
// through a staging copy, so the kernel never touches memory outside the
// m×n block, and only its new columns of its real rows are copied out.
func (p product) kernelTiles(lo, hi, _ int) {
	a, c, acc := p.pa.a, p.c, p.acc
	m, k, n := p.pa.m, p.pa.k, p.pa.n
	lda, rowStep := 1, k // A_eff[i][q] = a[i*rowStep+q*lda]
	if p.pa.trans {
		lda, rowStep = m, 1
	}
	for i0 := lo * 4; i0 < min(hi*4, m); i0 += 4 {
		rows := min(m-i0, 4)
		last := i0 + rows - 1
		a0, a1 := &a[i0*rowStep], &a[min(i0+1, last)*rowStep]
		a2, a3 := &a[min(i0+2, last)*rowStep], &a[min(i0+3, last)*rowStep]
		for j0 := 0; j0 < n; j0 += 8 {
			w, skip := min(n-j0, 8), 0 // the tile's new columns, and the ones left of j0 it recomputes
			bp, ldb := (*float64)(nil), n
			if p.panelB {
				bp, ldb = &p.b[j0*k], 8
			} else {
				skip = 8 - w
				bp = &p.b[j0-skip]
			}
			ctile := c[i0*n+j0-skip:]
			if rows == 4 && w == 8 {
				dgemmKernel4x8(k, a0, a1, a2, a3, lda, bp, ldb, &ctile[0], n, acc)
				continue
			}
			var ct [32]float64
			if acc {
				for r := 0; r < rows; r++ {
					copy(ct[r*8:r*8+skip+w], ctile[r*n:r*n+skip+w])
				}
			}
			dgemmKernel4x8(k, a0, a1, a2, a3, lda, bp, ldb, &ct[0], 8, acc)
			for r := 0; r < rows; r++ {
				copy(ctile[r*n+skip:r*n+skip+w], ct[r*8+skip:r*8+skip+w])
			}
		}
	}
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
