package codec

import (
	"fmt"
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
//   - all frames sparse: four rows' deltas at a time are scattered
//     interleaved into the worker's scratch and every partner frame takes its
//     four sparse·dense dots against them in one pass over its coordinates
//     (tensor.SparseDot4, SIMD and scalar bit-identical, each dot the
//     four-chain sum a single-row dot would be), with norms precomputed per
//     frame.
//
// Both walk the upper triangle through vec.PairTiles, the tile walk the
// dense matrices use, with their scratch taken once per worker per walk.
//
// Distances are over deltas; pairwise they equal weight-vector distances
// (the shared global model cancels), which defines the codec-on geometry.

// SqDistMatrix returns the pairwise squared-distance matrix of the frames'
// updates computed in the compressed domain, in a fresh matrix:
// SqDistMatrixInto(nil, frames).
func SqDistMatrix(frames []*Frame) [][]float64 { return SqDistMatrixInto(nil, frames) }

// SqDistMatrixInto returns the pairwise squared-distance matrix of the
// frames' updates computed in the compressed domain, filling dst's storage
// as vec.SqDistMatrixInto does, or nil — dst untouched — when the frame set
// has no exact compressed-domain path: a missing frame, mixed layouts, or
// dense raw/fp16 frames, whose geometry is the ordinary dense
// vec.SqDistMatrix over the reconstructed vectors.
func SqDistMatrixInto(dst [][]float64, frames []*Frame) [][]float64 {
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
		return sparseSqDist(dst, frames)
	}
	if first.Spec.Quant == Int8 {
		return int8SqDist(dst, frames)
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

// sparseSqDist computes the matrix for all-sparse frames into dst.
func sparseSqDist(dst [][]float64, frames []*Frame) [][]float64 {
	n := len(frames)
	dim := frames[0].Dim
	mustGatherable(frames)
	norms := make([]float64, n)
	tensor.ParallelFor(n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = dot4(frames[i].Val, frames[i].Val)
		}
	})
	m := vec.SquareInto(dst, n)
	// A tile's rows are taken four at a time: scattered interleaved into the
	// worker's scratch, rows[4·id+r] = row r's value at id, so each of the
	// tile's partner frames, hot after the tile's first group, meets all
	// four in one walk of its coordinates. Every (i,j) value is a pure
	// function of the two frames — row i dense, partner j sparse, as i < j —
	// so neither the grouping, the tiling nor the worker that claimed the
	// tile can affect the result. Lanes without a row below j (diagonal
	// tiles, a ragged last group) are computed against zeros or a later row
	// and dropped.
	vec.PairTiles(n, func(tiles iter.Seq[vec.Tile]) {
		scratch := getScratch(4 * dim)
		rows := (*scratch)[:4*dim]
		// The scratch holds one group, held = frames[heldAt:…], from one
		// tile to the next: a worker's consecutive tiles mostly share their
		// rows, and a tile walks its groups from whichever end is the group
		// already there, which saves that group's clear and scatter — as
		// costly, per coordinate, as a partner's dot.
		var held []*Frame
		heldAt := -1
		hold := func(i0 int, group []*Frame) {
			if i0 == heldAt {
				return
			}
			for r, f := range held {
				for _, id := range f.Idx {
					rows[4*int(id)+r] = 0
				}
			}
			held, heldAt = group, i0
			for r, f := range held {
				for k, id := range f.Idx {
					rows[4*int(id)+r] = f.Val[k]
				}
			}
		}
		defer func() {
			hold(-1, nil)
			putScratch(scratch)
		}()
		for t := range tiles {
			first, step := t.I0, 4
			if last := t.I0 + (t.I1-t.I0-1)&^3; heldAt == last {
				first, step = last, -4
			}
			for i0 := first; i0 >= t.I0 && i0 < t.I1; i0 += step {
				group := frames[i0:min(i0+4, t.I1)]
				hold(i0, group)
				for j := max(t.J0, i0+1); j < t.J1; j++ {
					fj := frames[j]
					dots := tensor.SparseDot4(fj.Idx, fj.Val, rows)
					for i := i0; i < min(i0+len(group), j); i++ {
						d := norms[i] + norms[j] - 2*dots[i-i0]
						if d < 0 {
							d = 0 // FP cancellation below true 0; distances are nonneg
						}
						m[i][j] = d
						m[j][i] = d
					}
				}
			}
		}
	})
	return m
}

// mustGatherable panics unless every sparse frame can be walked by the
// unchecked gather kernel: as many values as indices, indices strictly
// ascending and all in [0, Dim). Wire frames (DecodeWire) and encoder frames
// satisfy this already; the check covers a frame built by hand.
func mustGatherable(frames []*Frame) {
	for i, f := range frames {
		if len(f.Val) != len(f.Idx) {
			panic(fmt.Sprintf("codec: SqDistMatrix frame %d has %d indices, %d values", i, len(f.Idx), len(f.Val)))
		}
		prev := int32(-1)
		for t, id := range f.Idx {
			if id <= prev {
				panic(fmt.Sprintf("codec: SqDistMatrix frame %d index %d at position %d is negative or not above its predecessor", i, id, t))
			}
			prev = id
		}
		if int(prev) >= f.Dim {
			panic(fmt.Sprintf("codec: SqDistMatrix frame %d index %d outside dim %d", i, prev, f.Dim))
		}
	}
}

// int8SqDist computes the matrix for all-dense-int8 frames into dst.
func int8SqDist(dst [][]float64, frames []*Frame) [][]float64 {
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

	m := vec.SquareInto(dst, n)
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

// dot4 is a fixed-order four-chain dot product, the accumulation shape of
// every tensor.SparseDot4 lane, so norms and cross terms round identically.
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
