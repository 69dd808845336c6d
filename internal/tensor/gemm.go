package tensor

import (
	"fmt"
	"sync"
)

// Blocked, register-tiled matrix kernels. All three product shapes
// (A·B, Aᵀ·B, A·Bᵀ) are one routine: PackA describes the left operand,
// GemmPackedA multiplies it by a row-major right operand, GemmPanelB by one
// its producer wrote in the panel layout. The output is partitioned
// into register tiles (4×8 on the SIMD microkernel, 4×4 on the scalar
// path), each tile accumulates over the shared dimension in ascending
// order, and row-tile blocks are distributed over the package worker pool
// for large problems. Both paths read A where it lies; the microkernel
// reads B there too unless it is transposed or narrower than one panel.
//
// Determinism: every output element is produced by exactly one goroutine and
// its accumulation order over the shared dimension is fixed (ascending, one
// register chain per element), so results are bit-identical for any worker
// count — and bit-identical to the retained naive kernels up to the sign of
// zero (the naive loops skip zero operands, the tiled ones add ±0).

// parGrainMACs is the minimum number of multiply-accumulates a worker chunk
// should amortize before the row loop is worth fanning out.
const parGrainMACs = 1 << 15

// rowTiles returns the number of 4-row tiles covering m rows.
func rowTiles(m int) int { return (m + 3) / 4 }

// tileGrain converts the per-tile MAC count into a ParallelFor grain.
func tileGrain(k, n int) int {
	macs := 4 * k * n
	if macs <= 0 {
		return 1
	}
	g := parGrainMACs / macs
	if g < 1 {
		g = 1
	}
	return g
}

func checkRaw(op string, c, a, b []float64, am, an, bm, bn, m, n int) {
	if len(a) < am*an || len(b) < bm*bn || len(c) < m*n {
		panic(fmt.Sprintf("tensor: %s slice lengths %d/%d/%d too short for %dx%d · %dx%d",
			op, len(a), len(b), len(c), am, an, bm, bn))
	}
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("tensor: %s empty output %dx%d", op, m, n))
	}
}

// GemmNN computes the row-major product C (m×n) = A (m×k) · B (k×n) over
// raw slices, accumulating onto C's existing values when acc is set. The
// raw Gemm entry points are the header-free core used by the neural-network
// layers. All three are one GemmPackedA.
func GemmNN(c, a, b []float64, m, k, n int, acc bool) {
	checkRaw("GemmNN", c, a, b, m, k, k, n, m, n)
	GemmPackedA(c, PackA(a, m, k, n, false), b, false, acc)
}

// GemmTN computes C (m×n) = Aᵀ·B for row-major A (k×m) and B (k×n) over
// raw slices, accumulating onto C when acc is set.
func GemmTN(c, a, b []float64, m, k, n int, acc bool) {
	checkRaw("GemmTN", c, a, b, k, m, k, n, m, n)
	GemmPackedA(c, PackA(a, m, k, n, true), b, false, acc)
}

// GemmNT computes C (m×n) = A·Bᵀ for row-major A (m×k) and B (n×k) over
// raw slices, accumulating onto C when acc is set.
func GemmNT(c, a, b []float64, m, k, n int, acc bool) {
	checkRaw("GemmNT", c, a, b, m, k, n, k, m, n)
	GemmPackedA(c, PackA(a, m, k, n, false), b, true, acc)
}

// packBufs recycles the panels a product packs its right operand into;
// sync.Pool keeps the steady state allocation-free while staying safe for
// concurrent workers.
var packBufs = sync.Pool{New: func() any { s := make([]float64, 0, 8192); return &s }}

func getPackBuf(n int) *[]float64 {
	p := packBufs.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PackedA is the left operand A_eff (m×k) of products C (m×n) = A_eff·B_eff,
// described once by PackA and multiplied against any number of right
// operands by GemmPackedA — a convolution's weights against every sample
// of a batch. It is a plain descriptor over the caller's slice, which every
// product reads in place: the caller must not modify a while products that
// use it run.
type PackedA struct {
	a       []float64
	m, k, n int
	trans   bool
}

// PackA describes A_eff (m×k) for products with n-column right operands.
// With trans set A_eff = aᵀ for a stored k×m.
func PackA(a []float64, m, k, n int, trans bool) PackedA {
	if len(a) < m*k || m <= 0 || n <= 0 {
		panic(fmt.Sprintf("tensor: PackA slice length %d for a %dx%d left operand of a %dx%d product", len(a), m, k, m, n))
	}
	return PackedA{a: a, m: m, k: k, n: n, trans: trans}
}

// GemmPackedA computes C (m×n) = A_eff·B_eff for the left operand and shape
// fixed by PackA, over row-major B (k×n) — or B (n×k) with B_eff = Bᵀ when
// transB is set — accumulating onto C's existing values when acc is set.
// Aᵀ·Bᵀ is not offered: no layer asks for it. Where the microkernel runs it
// reads a row-major B of 8 columns or more in place and packs only what it
// cannot read that way: a transposed B, or a B narrower than one panel.
func GemmPackedA(c []float64, pa PackedA, b []float64, transB, acc bool) {
	m, k, n := pa.m, pa.k, pa.n
	if len(b) < k*n || len(c) < m*n || (pa.trans && transB) {
		panic(fmt.Sprintf("tensor: GemmPackedA slice lengths %d/%d for %dx%d · %dx%d (transA %v, transB %v)",
			len(b), len(c), m, k, k, n, pa.trans, transB))
	}
	p := product{pa: pa, c: c, b: b, transB: transB, acc: acc}
	if !simdWorthIt(m, k, n) || (!transB && n >= 8) {
		p.run()
		return
	}
	pbp := getPackBuf(PanelBLen(k, n))
	packB8(*pbp, b, k, n, transB)
	p.b, p.transB, p.panelB = *pbp, false, true
	p.run()
	packBufs.Put(pbp)
}

// PanelBLen returns the length of a k×n right operand in the panel layout
// GemmPanelB reads: ⌈n/8⌉ panels of k rows of 8 columns.
func PanelBLen(k, n int) int { return 8 * k * ((n + 7) / 8) }

// GemmPanelB is GemmPackedA for a right operand B_eff (k×n) that is not
// stored row-major but was written by its producer in zero-padded 8-column
// panels, pb[(t*k+p)*8+c] = B_eff[p][8t+c] with columns past n zero — the
// layout the microkernel reads with row stride 8. This is how a
// convolution hands over its patch matrix on every build: the scalar tiles
// of A·B index B through the same formula (bColumn).
// A transposed left operand is not offered: no layer asks for it.
func GemmPanelB(c []float64, pa PackedA, pb []float64, acc bool) {
	m, k, n := pa.m, pa.k, pa.n
	if len(pb) < PanelBLen(k, n) || len(c) < m*n || pa.trans {
		panic(fmt.Sprintf("tensor: GemmPanelB slice lengths %d/%d for %dx%d · %dx%d (transA %v)",
			len(pb), len(c), m, k, k, n, pa.trans))
	}
	product{pa: pa, c: c, b: pb, panelB: true, acc: acc}.run()
}

// product is one GEMM over a PackedA, handed by value to every chunk of
// its row-tile fan-out: C, and B row-major (B_eff = Bᵀ with transB) or,
// with panelB, in the panel layout.
type product struct {
	pa                  PackedA
	c, b                []float64
	transB, panelB, acc bool
}

// run fans the product's 4-row tiles out over the worker pool: onto the
// microkernel where simdWorthIt says so, onto the scalar tiles otherwise.
func (p product) run() {
	tiles, body := rowTiles(p.pa.m), product.scalarTiles
	if simdWorthIt(p.pa.m, p.pa.k, p.pa.n) {
		body = product.kernelTiles
	}
	ParallelChunks(tiles, tileGrain(p.pa.k, p.pa.n), tiles, p, body)
}

// scalarTiles runs the 4-row tiles [lo, hi) of the product on the scalar
// tiles.
func (p product) scalarTiles(lo, hi, _ int) {
	pa, c, b, i0, i1 := p.pa, p.c, p.b, lo*4, min(hi*4, p.pa.m)
	switch {
	case pa.trans:
		gemmTN(c, pa.a, b, pa.k, pa.m, pa.n, i0, i1, p.acc)
	case p.transB:
		gemmNT(c, pa.a, b, pa.k, pa.n, i0, i1, p.acc)
	default:
		gemmNN(c, pa.a, b, pa.k, pa.n, i0, i1, p.acc, p.panelB)
	}
}

// bColumn returns B_eff from element (0, j) on and the distance between
// consecutive depths of a column: b[j:] and n for row-major B (k×n); for B
// in GemmPanelB's layout the panel holding column j from that column on, and
// 8. A 4-column tile starts at a multiple of 4 and so never straddles an
// 8-column panel: either way its four values of depth p are bj[p*ldb:p*ldb+4].
func bColumn(b []float64, k, n, j int, panelB bool) (bj []float64, ldb int) {
	if panelB {
		return b[(j>>3)*k*8+j&7:], 8
	}
	return b[j:], n
}

// gemmNN computes rows [i0, i1) of C = A·B (or C += A·B when acc is set)
// for row-major A (lda = k) and C (ldc = n), and B either row-major
// (ldb = n) or, with panelB, in GemmPanelB's layout.
func gemmNN(c, a, b []float64, k, n, i0, i1 int, acc, panelB bool) {
	n4 := n &^ 3
	for i := i0; i < i1; i += 4 {
		if i+4 <= i1 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			c0 := c[i*n : i*n+n]
			c1 := c[(i+1)*n : (i+1)*n+n]
			c2 := c[(i+2)*n : (i+2)*n+n]
			c3 := c[(i+3)*n : (i+3)*n+n]
			for j := 0; j < n4; j += 4 {
				bj, ldb := bColumn(b, k, n, j, panelB)
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				var s20, s21, s22, s23 float64
				var s30, s31, s32, s33 float64
				if acc {
					s00, s01, s02, s03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
					s10, s11, s12, s13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
					s20, s21, s22, s23 = c2[j], c2[j+1], c2[j+2], c2[j+3]
					s30, s31, s32, s33 = c3[j], c3[j+1], c3[j+2], c3[j+3]
				}
				for p := 0; p < k; p++ {
					bp := bj[p*ldb : p*ldb+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					av := a0[p]
					s00 += av * b0
					s01 += av * b1
					s02 += av * b2
					s03 += av * b3
					av = a1[p]
					s10 += av * b0
					s11 += av * b1
					s12 += av * b2
					s13 += av * b3
					av = a2[p]
					s20 += av * b0
					s21 += av * b1
					s22 += av * b2
					s23 += av * b3
					av = a3[p]
					s30 += av * b0
					s31 += av * b1
					s32 += av * b2
					s33 += av * b3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
				c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
			}
			for j := n4; j < n; j++ {
				bj, ldb := bColumn(b, k, n, j, panelB)
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = c0[j], c1[j], c2[j], c3[j]
				}
				for p := 0; p < k; p++ {
					bv := bj[p*ldb]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
			}
			continue
		}
		for ; i < i1; i++ {
			ar := a[i*k : i*k+k]
			cr := c[i*n : i*n+n]
			for j := 0; j < n4; j += 4 {
				bj, ldb := bColumn(b, k, n, j, panelB)
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = cr[j], cr[j+1], cr[j+2], cr[j+3]
				}
				for p := 0; p < k; p++ {
					bp := bj[p*ldb : p*ldb+4]
					av := ar[p]
					s0 += av * bp[0]
					s1 += av * bp[1]
					s2 += av * bp[2]
					s3 += av * bp[3]
				}
				cr[j], cr[j+1], cr[j+2], cr[j+3] = s0, s1, s2, s3
			}
			for j := n4; j < n; j++ {
				bj, ldb := bColumn(b, k, n, j, panelB)
				var s float64
				if acc {
					s = cr[j]
				}
				for p := 0; p < k; p++ {
					s += ar[p] * bj[p*ldb]
				}
				cr[j] = s
			}
		}
	}
}

// gemmTN computes rows [i0, i1) of C = Aᵀ·B (or C += Aᵀ·B when acc is set)
// for row-major A (k×m), B (k×n), C (m×n).
func gemmTN(c, a, b []float64, k, m, n, i0, i1 int, acc bool) {
	n4 := n &^ 3
	for i := i0; i < i1; i += 4 {
		if i+4 <= i1 {
			c0 := c[i*n : i*n+n]
			c1 := c[(i+1)*n : (i+1)*n+n]
			c2 := c[(i+2)*n : (i+2)*n+n]
			c3 := c[(i+3)*n : (i+3)*n+n]
			for j := 0; j < n4; j += 4 {
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				var s20, s21, s22, s23 float64
				var s30, s31, s32, s33 float64
				if acc {
					s00, s01, s02, s03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
					s10, s11, s12, s13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
					s20, s21, s22, s23 = c2[j], c2[j+1], c2[j+2], c2[j+3]
					s30, s31, s32, s33 = c3[j], c3[j+1], c3[j+2], c3[j+3]
				}
				for p := 0; p < k; p++ {
					ap := a[p*m+i : p*m+i+4]
					bp := b[p*n+j : p*n+j+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					av := ap[0]
					s00 += av * b0
					s01 += av * b1
					s02 += av * b2
					s03 += av * b3
					av = ap[1]
					s10 += av * b0
					s11 += av * b1
					s12 += av * b2
					s13 += av * b3
					av = ap[2]
					s20 += av * b0
					s21 += av * b1
					s22 += av * b2
					s23 += av * b3
					av = ap[3]
					s30 += av * b0
					s31 += av * b1
					s32 += av * b2
					s33 += av * b3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
				c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
			}
			for j := n4; j < n; j++ {
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = c0[j], c1[j], c2[j], c3[j]
				}
				for p := 0; p < k; p++ {
					ap := a[p*m+i : p*m+i+4]
					bv := b[p*n+j]
					s0 += ap[0] * bv
					s1 += ap[1] * bv
					s2 += ap[2] * bv
					s3 += ap[3] * bv
				}
				c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
			}
			continue
		}
		for ; i < i1; i++ {
			cr := c[i*n : i*n+n]
			for j := 0; j < n4; j += 4 {
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = cr[j], cr[j+1], cr[j+2], cr[j+3]
				}
				for p := 0; p < k; p++ {
					av := a[p*m+i]
					bp := b[p*n+j : p*n+j+4]
					s0 += av * bp[0]
					s1 += av * bp[1]
					s2 += av * bp[2]
					s3 += av * bp[3]
				}
				cr[j], cr[j+1], cr[j+2], cr[j+3] = s0, s1, s2, s3
			}
			for j := n4; j < n; j++ {
				var s float64
				if acc {
					s = cr[j]
				}
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[p*n+j]
				}
				cr[j] = s
			}
		}
	}
}

// gemmNT computes rows [i0, i1) of C = A·Bᵀ (or C += A·Bᵀ when acc is set)
// for row-major A (m×k), B (n×k), C (m×n): every output element is the dot
// product of two contiguous rows.
func gemmNT(c, a, b []float64, k, n, i0, i1 int, acc bool) {
	n4 := n &^ 3
	for i := i0; i < i1; i += 4 {
		if i+4 <= i1 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			c0 := c[i*n : i*n+n]
			c1 := c[(i+1)*n : (i+1)*n+n]
			c2 := c[(i+2)*n : (i+2)*n+n]
			c3 := c[(i+3)*n : (i+3)*n+n]
			for j := 0; j < n4; j += 4 {
				b0 := b[j*k : j*k+k]
				b1 := b[(j+1)*k : (j+1)*k+k]
				b2 := b[(j+2)*k : (j+2)*k+k]
				b3 := b[(j+3)*k : (j+3)*k+k]
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				var s20, s21, s22, s23 float64
				var s30, s31, s32, s33 float64
				if acc {
					s00, s01, s02, s03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
					s10, s11, s12, s13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
					s20, s21, s22, s23 = c2[j], c2[j+1], c2[j+2], c2[j+3]
					s30, s31, s32, s33 = c3[j], c3[j+1], c3[j+2], c3[j+3]
				}
				for p := 0; p < k; p++ {
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					av := a0[p]
					s00 += av * bv0
					s01 += av * bv1
					s02 += av * bv2
					s03 += av * bv3
					av = a1[p]
					s10 += av * bv0
					s11 += av * bv1
					s12 += av * bv2
					s13 += av * bv3
					av = a2[p]
					s20 += av * bv0
					s21 += av * bv1
					s22 += av * bv2
					s23 += av * bv3
					av = a3[p]
					s30 += av * bv0
					s31 += av * bv1
					s32 += av * bv2
					s33 += av * bv3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
				c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
			}
			for j := n4; j < n; j++ {
				bj := b[j*k : j*k+k]
				var s0, s1, s2, s3 float64
				if acc {
					s0, s1, s2, s3 = c0[j], c1[j], c2[j], c3[j]
				}
				for p := 0; p < k; p++ {
					bv := bj[p]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
			}
			continue
		}
		for ; i < i1; i++ {
			ar := a[i*k : i*k+k]
			cr := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				bj := b[j*k : j*k+k]
				var s float64
				if acc {
					s = cr[j]
				}
				for p := 0; p < k; p++ {
					s += ar[p] * bj[p]
				}
				cr[j] = s
			}
		}
	}
}
