package vec

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

func randVecs(rng *rand.Rand, n, dim int) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, dim)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64()
		}
	}
	return vs
}

// TestSqDistMatrixMatchesNaive checks the parallel unrolled matrix against
// the sequential per-pair reference across sizes, including dimensions not
// divisible by the unroll factor.
func TestSqDistMatrixMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, dim int }{{1, 5}, {2, 1}, {3, 7}, {10, 1003}, {17, 64}} {
		vs := randVecs(rng, tc.n, tc.dim)
		m := SqDistMatrix(vs)
		for i := 0; i < tc.n; i++ {
			if m[i][i] != 0 {
				t.Fatalf("n=%d dim=%d: diagonal [%d] = %v", tc.n, tc.dim, i, m[i][i])
			}
			for j := 0; j < tc.n; j++ {
				want := SqDist(vs[i], vs[j])
				scale := math.Max(1, want)
				if math.Abs(m[i][j]-want)/scale > 1e-9 {
					t.Fatalf("n=%d dim=%d: [%d][%d] = %v, want %v", tc.n, tc.dim, i, j, m[i][j], want)
				}
				if m[i][j] != m[j][i] {
					t.Fatalf("matrix not symmetric at [%d][%d]", i, j)
				}
			}
		}
	}
}

// TestCosineMatrixMatchesNaive checks the shared cosine matrix against the
// per-pair definition.
func TestCosineMatrixMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := randVecs(rng, 9, 131)
	vs[4] = make([]float64, 131) // zero vector edge case
	m := CosineMatrix(vs)
	for i := range vs {
		for j := range vs {
			var want float64
			if i == j {
				want = 1
			} else {
				na, nb := Norm2(vs[i]), Norm2(vs[j])
				if na != 0 && nb != 0 {
					dot := 0.0
					for k := range vs[i] {
						dot += vs[i][k] * vs[j][k]
					}
					want = dot / (na * nb)
				}
			}
			if math.Abs(m[i][j]-want) > 1e-9 {
				t.Fatalf("[%d][%d] = %v, want %v", i, j, m[i][j], want)
			}
		}
	}
}

// refSqDistMatrix is the pair-at-a-time matrix the tile walk replaced, kept
// as the reference: one SqDistSlice per pair up to 2·dBlock dimensions, and
// beyond that dBlock-long partials summed per pair in ascending order.
func refSqDistMatrix(vs [][]float64) [][]float64 {
	n := len(vs)
	m := SquareInto(nil, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dim := len(vs[i])
			var d float64
			if dim <= 2*dBlock {
				d = tensor.SqDistSlice(vs[i], vs[j])
			} else {
				for d0 := 0; d0 < dim; d0 += dBlock {
					d1 := min(d0+dBlock, dim)
					d += tensor.SqDistSlice(vs[i][d0:d1], vs[j][d0:d1])
				}
			}
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

// refCosineMatrix is the pair-at-a-time cosine matrix, likewise.
func refCosineMatrix(vs [][]float64) [][]float64 {
	n := len(vs)
	m := SquareInto(nil, n)
	for i := 0; i < n; i++ {
		m[i][i] = 1
		for j := i + 1; j < n; j++ {
			var s float64
			if ni, nj := Norm2(vs[i]), Norm2(vs[j]); ni != 0 && nj != 0 {
				s = tensor.DotSlice(vs[i], vs[j]) / (ni * nj)
			}
			m[i][j], m[j][i] = s, s
		}
	}
	return m
}

// The matrix sizes and dimensions the tile walk is pinned on: sizes around the tile edge plus a ragged 67, dimensions around the
// SIMD threshold, the block length and the one-call/blocked boundary.
var (
	walkSizes = []int{1, 2, 3, TileEdge - 1, TileEdge, TileEdge + 1, 67}
	walkDims  = []int{1, 63, 64, 65, 4096, 8192, 8193, 10010}
)

// TestMatricesBitEqualPairAtATime is the walk's contract: at any size,
// dimension and worker count both matrices are == the pair-at-a-time
// reference, element for element.
func TestMatricesBitEqualPairAtATime(t *testing.T) {
	defer tensor.SetWorkers(0)
	rng := rand.New(rand.NewSource(3))
	for _, dim := range walkDims {
		for _, n := range walkSizes {
			vs := randVecs(rng, n, dim)
			if n > 2 {
				vs[2] = make([]float64, dim) // zero vector: cosine's 0 branch
			}
			wantSq, wantCos := refSqDistMatrix(vs), refCosineMatrix(vs)
			for _, w := range []int{1, 2, 8} {
				tensor.SetWorkers(w)
				if got := SqDistMatrix(vs); !reflect.DeepEqual(got, wantSq) {
					t.Fatalf("SqDistMatrix n=%d dim=%d workers=%d differs from the pair-at-a-time reference", n, dim, w)
				}
				if got := CosineMatrix(vs); !reflect.DeepEqual(got, wantCos) {
					t.Fatalf("CosineMatrix n=%d dim=%d workers=%d differs from the pair-at-a-time reference", n, dim, w)
				}
			}
		}
	}
}

// TestPairTilesCoversEveryPairOnce checks the walk itself: every pair of
// the strict upper triangle arrives in exactly one tile, no tile is larger
// than TileEdge on a side, and several workers get tiles even at n = 10.
func TestPairTilesCoversEveryPairOnce(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, w := range []int{1, 2, 8} {
		tensor.SetWorkers(w)
		for n := 0; n <= 70; n++ {
			seen := make([]atomic.Int32, n*n)
			var tiles atomic.Int32
			PairTiles(n, func(claimed iter.Seq[Tile]) {
				for tl := range claimed {
					tiles.Add(1)
					if tl.I1-tl.I0 > TileEdge || tl.J1-tl.J0 > TileEdge {
						t.Errorf("n=%d: tile %+v exceeds edge %d", n, tl, TileEdge)
					}
					for i := tl.I0; i < tl.I1; i++ {
						for j := max(tl.J0, i+1); j < tl.J1; j++ {
							seen[i*n+j].Add(1)
						}
					}
				}
			})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := int32(0)
					if i < j {
						want = 1
					}
					if got := seen[i*n+j].Load(); got != want {
						t.Fatalf("workers=%d n=%d: pair (%d,%d) visited %d times, want %d", w, n, i, j, got, want)
					}
				}
			}
			if n == 10 && int(tiles.Load()) < w {
				t.Fatalf("workers=%d: n=10 split into %d tiles, fewer than the workers", w, tiles.Load())
			}
		}
	}
}

// TestMatricesPanicOnLengthMismatch covers both directions (a partner
// longer and shorter than the first vector) on both sides of the
// one-call/blocked boundary at 2·dBlock.
func TestMatricesPanicOnLengthMismatch(t *testing.T) {
	for _, tc := range []struct{ first, partner int }{{100, 90}, {100, 110}, {9000, 8500}, {9000, 9500}} {
		vs := [][]float64{make([]float64, tc.first), make([]float64, tc.first), make([]float64, tc.partner)}
		for name, matrix := range map[string]func([][]float64) [][]float64{"SqDistMatrix": SqDistMatrix, "CosineMatrix": CosineMatrix} {
			func() {
				defer func() {
					want := fmt.Sprintf("vec: %s length mismatch %d vs %d", name, tc.first, tc.partner)
					if r := recover(); r != want {
						t.Fatalf("%s(%d, %d, %d): recovered %v, want panic %q", name, tc.first, tc.first, tc.partner, r, want)
					}
				}()
				matrix(vs)
			}()
		}
	}
}
