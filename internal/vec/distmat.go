// The shared distance-matrix service: every consumer of pairwise update
// geometry — the Krum-family scorers, Bulyan's iterative selection,
// FoolsGold's similarity matrix, the Min-Max/Min-Sum attack bounds —
// computes the round's n×n matrix once through these helpers instead of
// re-deriving O(n²·d) distances per use. The upper triangle is walked in
// cache-sized tiles of pairs that workers claim dynamically (PairTiles);
// every pair's value is a fixed function of its two operands, so results
// depend on neither the tile edge nor the worker count.
package vec

import (
	"iter"
	"sync/atomic"

	"repro/internal/tensor"
)

// dBlock is the length of the dimension blocks SqDistMatrix accumulates a
// high-dimensional pair over.
const dBlock = 4096

// l2Budget is the working set a tile may keep hot: half of the 2 MB L2 a
// core has on the machines this runs on, leaving the rest to the matrix
// rows being written and to whatever else the round has in flight.
const l2Budget = 1 << 20

// TileEdge is the edge T of the T×T tiles of pairs PairTiles hands out. On
// one dBlock-long block of a tile, each row goes through once and the T
// partners are read again for every row or pair of rows; T is the largest
// edge at which the partners' float64 blocks fit in l2Budget, so a worker
// that consumes a tile block by block streams every partner from L2, not
// from L3. Geometry kernels size their per-worker scratch by it.
const TileEdge = l2Budget / (dBlock * 8)

// Tile is one rectangle of the strict upper triangle: the pairs i < j with
// i in [I0, I1) and j in [J0, J1). Tiles on the diagonal have I0 == J0; all
// others have J0 >= I1.
type Tile struct{ I0, I1, J0, J1 int }

// PairTiles walks the strict upper triangle of an n×n matrix in tiles of at
// most TileEdge×TileEdge pairs. It runs worker on up to tensor.Workers()
// goroutines; each ranges over tiles, which claims one tile at a time from
// a counter the goroutines share — a triangle has no static split that
// balances — and allocates whatever scratch it needs once, outside that
// loop. Every pair lies in exactly one tile, so workers that write only
// their own pairs' outputs never race. For small n the edge is halved until
// there are four tiles per worker, so a K = 10 round still fans out; a
// pair's value must not depend on the tile it arrived in.
func PairTiles(n int, worker func(tiles iter.Seq[Tile])) {
	if n < 2 {
		return
	}
	workers := tensor.Workers()
	t := TileEdge
	tileRows := func() int { return (n + t - 1) / t }
	for t > 1 && tileRows()*(tileRows()+1)/2 < 4*workers {
		t /= 2
	}
	nt := tileRows()
	count := nt * (nt + 1) / 2
	var next atomic.Int64
	tiles := func(yield func(Tile) bool) {
		for {
			p := int(next.Add(1)) - 1
			if p >= count {
				return
			}
			// Tiles are numbered row-major over the upper triangle, so
			// consecutive claims mostly share their row block.
			ti := 0
			for ; p >= nt-ti; ti++ {
				p -= nt - ti
			}
			tj := ti + p
			if !yield(Tile{ti * t, min(ti*t+t, n), tj * t, min(tj*t+t, n)}) {
				return
			}
		}
	}
	tensor.FanOut(min(workers, count), func(int) { worker(tiles) })
}

// mustSameLens panics unless every vector has the length of the first, and
// returns that length (0 for no vectors).
func mustSameLens(op string, vs [][]float64) int {
	if len(vs) == 0 {
		return 0
	}
	for _, v := range vs[1:] {
		mustSameLen(op, vs[0], v)
	}
	return len(vs[0])
}

// SqDistMatrix returns the symmetric n×n matrix of pairwise squared
// Euclidean distances between the vectors, with zeros on the diagonal, in
// a fresh matrix: SqDistMatrixInto(nil, vs).
func SqDistMatrix(vs [][]float64) [][]float64 { return SqDistMatrixInto(nil, vs) }

// SqDistMatrixInto is SqDistMatrix filling dst's storage (see SquareInto),
// which it grows when dst holds fewer than n² values; the returned matrix
// replaces dst. Vectors of unequal length panic.
//
// High-dimensional vectors are consumed in dBlock-long blocks: a worker
// runs a tile's pairs over one block of the tile's vectors, in one
// tensor.SqDistTile call, before moving to the next block, so the blocks
// it is reading stay in its L2. Each pair accumulates its block partials
// in ascending dimension order.
func SqDistMatrixInto(dst, vs [][]float64) [][]float64 {
	n := len(vs)
	dim := mustSameLens("SqDistMatrix", vs)
	m := SquareInto(dst, n)
	block := dBlock
	if dim <= 2*dBlock {
		block = dim // short enough for one kernel call per pair
	}
	PairTiles(n, func(tiles iter.Seq[Tile]) {
		scratch := make([][]float64, 3*TileEdge)
		rows, cols, out := scratch[:TileEdge], scratch[TileEdge:2*TileEdge], scratch[2*TileEdge:]
		for t := range tiles {
			nr, nc := t.I1-t.I0, t.J1-t.J0
			for r := range nr {
				out[r] = m[t.I0+r][t.J0:t.J1]
			}
			for d0 := 0; d0 < dim; d0 += block {
				d1 := min(d0+block, dim)
				for r := range nr {
					rows[r] = vs[t.I0+r][d0:d1]
				}
				for c := range nc {
					cols[c] = vs[t.J0+c][d0:d1]
				}
				tensor.SqDistTile(rows[:nr], cols[:nc], out[:nr], t.I0 == t.J0)
			}
			for i := t.I0; i < t.I1; i++ {
				for j := max(t.J0, i+1); j < t.J1; j++ {
					m[j][i] = m[i][j]
				}
			}
		}
	})
	return m
}

// CosineMatrix returns the symmetric n×n matrix of pairwise cosine
// similarities (1 on the diagonal, 0 against zero vectors), computing every
// norm once instead of once per pair. Vectors of unequal length panic.
func CosineMatrix(vs [][]float64) [][]float64 {
	n := len(vs)
	mustSameLens("CosineMatrix", vs)
	norms := make([]float64, n)
	tensor.ParallelFor(n, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = Norm2(vs[i])
		}
	})
	m := SquareInto(nil, n)
	for i := range m {
		m[i][i] = 1
	}
	PairTiles(n, func(tiles iter.Seq[Tile]) {
		for t := range tiles {
			for i := t.I0; i < t.I1; i++ {
				for j := max(t.J0, i+1); j < t.J1; j++ {
					var s float64
					if norms[i] != 0 && norms[j] != 0 {
						s = tensor.DotSlice(vs[i], vs[j]) / (norms[i] * norms[j])
					}
					m[i][j] = s
					m[j][i] = s
				}
			}
		}
	})
	return m
}

// SquareInto returns an n×n zero matrix over one contiguous backing slice,
// reusing dst's storage when dst — nil or a matrix SquareInto returned —
// holds n² values, and allocating otherwise. The returned matrix replaces
// dst: its rows alias the same backing.
func SquareInto(dst [][]float64, n int) [][]float64 {
	var backing []float64
	if len(dst) > 0 && cap(dst[0]) >= n*n {
		backing = dst[0][:n*n]
		clear(backing)
	} else {
		backing = make([]float64, n*n)
	}
	m := dst[:0]
	if cap(m) < n {
		m = make([][]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		m = append(m, backing[i*n:(i+1)*n])
	}
	return m
}
