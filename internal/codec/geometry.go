package codec

import (
	"iter"
	"sync"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// Compressed-domain geometry: the Krum/Bulyan distance matrices computed
// directly on codec frames, without dequantizing every update to dense
// float64. Two exact paths exist:
//
//   - all frames dense int8: D_ij = A_i + A_j − 2·Σ_b s_i[b]·s_j[b]·⟨q_i,q_j⟩_b
//     where the per-block integer dots are exact int64 (tensor.Int8BlockDots,
//     SIMD and scalar bit-identical) and the scale combination runs in
//     ascending block order — worker-count invariant by construction;
//   - all frames sparse: a row's delta is scattered into the worker's dense
//     scratch and partner frames take a sparse·dense dot against it (cheaper
//     than an O(k_i+k_j) merge re-walked per pair), with norms precomputed
//     per frame.
//
// Both walk the upper triangle through vec.PairTiles, the tile walk the
// dense matrices use, with their scratch taken once per worker per walk.
//
// Distances are over deltas; pairwise they equal weight-vector distances
// (the shared global model cancels), which defines the codec-on geometry.

// SqDistMatrix returns the pairwise squared-distance matrix of the frames'
// updates computed in the compressed domain, or nil when the frame set has
// no exact compressed-domain path — a missing frame, mixed layouts, or
// dense raw/fp16 frames, whose geometry is the ordinary dense
// vec.SqDistMatrix over the reconstructed vectors.
func SqDistMatrix(frames []*Frame) [][]float64 {
	n := len(frames)
	if n == 0 {
		return nil
	}
	first := frames[0]
	if first == nil {
		return nil
	}
	sparse := first.Idx != nil
	for _, f := range frames {
		if f == nil || f.Dim != first.Dim || (f.Idx != nil) != sparse || f.Spec.Quant != first.Spec.Quant {
			return nil
		}
	}
	if sparse {
		return sparseSqDist(frames)
	}
	if first.Spec.Quant == Int8 {
		return int8SqDist(frames)
	}
	return nil
}

// scratchPool hands out zeroed dense float64 scratch; users must re-zero
// the entries they touched before returning a buffer. Pointer-to-slice
// storage keeps Put allocation-free (same idiom as tensor's packBufs).
var scratchPool sync.Pool

func getScratch(dim int) *[]float64 {
	if p, ok := scratchPool.Get().(*[]float64); ok && len(*p) >= dim {
		return p
	}
	s := make([]float64, dim)
	return &s
}

func putScratch(p *[]float64) { scratchPool.Put(p) }

// sparseSqDist computes the matrix for all-sparse frames.
func sparseSqDist(frames []*Frame) [][]float64 {
	n := len(frames)
	dim := frames[0].Dim
	norms := make([]float64, n)
	tensor.ParallelFor(n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = dot4(frames[i].Val, frames[i].Val)
		}
	})
	m := newSquare(n)
	// Each row of a tile is scattered into the worker's dense scratch and
	// the tile's partner frames, hot after the tile's first row, stream
	// past it. Every (i,j) value is a pure function of the two frames —
	// row i dense, partner j sparse, as i < j — so neither the tiling nor
	// the worker that claimed the tile can affect the result.
	vec.PairTiles(n, func(tiles iter.Seq[vec.Tile]) {
		scratch := getScratch(dim)
		defer putScratch(scratch)
		dense := (*scratch)[:dim]
		for t := range tiles {
			for i := t.I0; i < t.I1; i++ {
				fi := frames[i]
				for k, id := range fi.Idx {
					dense[id] = fi.Val[k]
				}
				for j := max(t.J0, i+1); j < t.J1; j++ {
					fj := frames[j]
					d := norms[i] + norms[j] - 2*SparseDotDense(fj.Idx, fj.Val, dense)
					if d < 0 {
						d = 0 // FP cancellation below true 0; distances are nonneg
					}
					m[i][j] = d
					m[j][i] = d
				}
				for _, id := range fi.Idx {
					dense[id] = 0
				}
			}
		}
	})
	return m
}

// int8SqDist computes the matrix for all-dense-int8 frames.
func int8SqDist(frames []*Frame) [][]float64 {
	n := len(frames)
	dim := frames[0].Dim
	blocks := dim / Block
	tail := dim - blocks*Block
	nb := blocks
	if tail > 0 {
		nb++
	}

	// Per-frame quantized norms A_i = Σ_b s_b²·⟨q,q⟩_b, ascending blocks.
	norms := make([]float64, n)
	tensor.ParallelFor(n, 2, func(lo, hi int) {
		dots := make([]int64, nb)
		for i := lo; i < hi; i++ {
			f := frames[i]
			blockDots(f.Q, f.Q, blocks, tail, dots)
			s := 0.0
			for b := 0; b < nb; b++ {
				s += f.Scales[b] * f.Scales[b] * float64(dots[b])
			}
			norms[i] = s
		}
	})

	m := newSquare(n)
	vec.PairTiles(n, func(tiles iter.Seq[vec.Tile]) {
		dots := make([]int64, nb)
		for t := range tiles {
			for i := t.I0; i < t.I1; i++ {
				fi := frames[i]
				for j := max(t.J0, i+1); j < t.J1; j++ {
					fj := frames[j]
					blockDots(fi.Q, fj.Q, blocks, tail, dots)
					cross := 0.0
					for b := 0; b < nb; b++ {
						cross += fi.Scales[b] * fj.Scales[b] * float64(dots[b])
					}
					d := norms[i] + norms[j] - 2*cross
					if d < 0 {
						d = 0
					}
					m[i][j] = d
					m[j][i] = d
				}
			}
		}
	})
	return m
}

// blockDots fills dots with the exact per-block integer dot products,
// including the final partial block when tail > 0.
func blockDots(a, b []int8, blocks, tail int, dots []int64) {
	tensor.Int8BlockDots(a, b, dots[:blocks])
	if tail > 0 {
		lo := blocks * Block
		dots[blocks] = tensor.Int8Dot(a[lo:], b[lo:])
	}
}

// dot4 is a fixed-order four-chain dot product, the accumulation shape
// shared with SparseDotDense so norms and cross terms round identically.
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// SparseDotDense returns Σ_t val[t]·dense[idx[t]] — the sparse·dense inner
// product. Accumulation runs over positions in ascending order with four
// independent chains, so the result is a pure function of the operands
// (never of worker count or call site).
func SparseDotDense(idx []int32, val, dense []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(idx); i += 4 {
		s0 += val[i] * dense[idx[i]]
		s1 += val[i+1] * dense[idx[i+1]]
		s2 += val[i+2] * dense[idx[i+2]]
		s3 += val[i+3] * dense[idx[i+3]]
	}
	for ; i < len(idx); i++ {
		s0 += val[i] * dense[idx[i]]
	}
	return ((s0 + s1) + s2) + s3
}

// newSquare allocates an n×n matrix over one contiguous backing slice
// (mirrors vec's layout).
func newSquare(n int) [][]float64 {
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}
