package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Blocked, register-tiled matrix kernels. All three product shapes
// (A·B, Aᵀ·B, A·Bᵀ) are one routine: PackA describes the left operand,
// GemmPackedA multiplies it by a row-major right operand, GemmPanelB by one
// its producer wrote in the panel layout. The output is partitioned into
// 4-row tiles, and row-tile blocks are distributed over the package worker
// pool for large problems. A SIMD build runs every tile on the 4×8
// microkernel, every other build on its scalar twin (scalarTiles). Both
// read A where it lies; the microkernel reads B there too unless it is
// transposed or narrower than one panel.
//
// One arithmetic: every output element is one chain of fused multiply-adds
// (VFMADD231PD, or math.FMA: one rounding per step) over the shared
// dimension in ascending order, from +0 or, when accumulating, from C's
// value. Each element is produced by exactly one goroutine, so a product
// returns the same bits on every build and tier and for any worker count.

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
	if !simdOn || (!transB && n >= 8) {
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
// convolution hands over its patch matrix on every build: the scalar tile
// indexes B through the same formula (bColumn).
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
// microkernel on a SIMD build, onto the scalar tile otherwise.
func (p product) run() {
	tiles, body := rowTiles(p.pa.m), product.scalarTiles
	if simdOn {
		body = product.kernelTiles
	}
	ParallelChunks(tiles, tileGrain(p.pa.k, p.pa.n), tiles, p, body)
}

// scalarTiles is kernelTiles' scalar twin, the tile every build without the
// microkernel runs: it computes the 4-row tiles [lo, hi) of the product two
// rows by four columns at a time, each output one ascending-depth math.FMA
// chain from +0 or, with acc, from C's value. It reads A as the microkernel
// does, A_eff[i][q] = a[i*rowStep+q*lda], and B through bColumn. A tile cut
// by the last row or column repeats that row or column and stores only its
// real outputs.
func (p product) scalarTiles(lo, hi, _ int) {
	a, b, c := p.pa.a, p.b, p.c
	m, k, n := p.pa.m, p.pa.k, p.pa.n
	lda, rowStep := 1, k
	if p.pa.trans {
		lda, rowStep = m, 1
	}
	for i := lo * 4; i < min(hi*4, m); i += 2 {
		i1 := min(i+1, m-1)
		x0, x1 := i*rowStep, i1*rowStep
		for j := 0; j < n; j += 4 {
			j1, j2, j3 := min(j+1, n-1), min(j+2, n-1), min(j+3, n-1)
			y0, ldb := p.bColumn(j)
			y1, _ := p.bColumn(j1)
			y2, _ := p.bColumn(j2)
			y3, _ := p.bColumn(j3)
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			if p.acc {
				r0, r1 := c[i*n:i*n+n], c[i1*n:i1*n+n]
				s00, s01, s02, s03 = r0[j], r0[j1], r0[j2], r0[j3]
				s10, s11, s12, s13 = r1[j], r1[j1], r1[j2], r1[j3]
			}
			for qa, qb := 0, 0; qa < k*lda; qa, qb = qa+lda, qb+ldb {
				a0, a1 := a[x0+qa], a[x1+qa]
				b0, b1, b2, b3 := b[y0+qb], b[y1+qb], b[y2+qb], b[y3+qb]
				s00 = math.FMA(a0, b0, s00)
				s01 = math.FMA(a0, b1, s01)
				s02 = math.FMA(a0, b2, s02)
				s03 = math.FMA(a0, b3, s03)
				s10 = math.FMA(a1, b0, s10)
				s11 = math.FMA(a1, b1, s11)
				s12 = math.FMA(a1, b2, s12)
				s13 = math.FMA(a1, b3, s13)
			}
			if i+2 <= m && j+4 <= n {
				r0, r1 := c[i*n+j:i*n+j+4], c[i1*n+j:i1*n+j+4]
				r0[0], r0[1], r0[2], r0[3] = s00, s01, s02, s03
				r1[0], r1[1], r1[2], r1[3] = s10, s11, s12, s13
				continue
			}
			out := [8]float64{s00, s01, s02, s03, s10, s11, s12, s13}
			for r := 0; r < min(m-i, 2); r++ {
				copy(c[(i+r)*n+j:(i+r)*n+min(j+4, n)], out[r*4:])
			}
		}
	}
}

// bColumn returns where column j of B_eff starts in b and the distance
// between its consecutive depths: B_eff[q][j] = b[off+q*ldb], with ldb n for
// a row-major B (k×n), 1 for a transposed one (n×k) and 8 for GemmPanelB's
// layout, where off is the column's place in its panel.
func (p product) bColumn(j int) (off, ldb int) {
	switch {
	case p.panelB:
		return (j>>3)*p.pa.k*8 + j&7, 8
	case p.transB:
		return j * p.pa.k, 1
	}
	return j, p.pa.n
}
