package tensor

// Flat-slice math kernels shared by the vector layer: squared distance and
// dot product (SIMD-accelerated where available, with scalar twins that sum
// in the same lane order) and element-wise addition (bit-identical on every
// path).
// These are the primitives the shared distance-matrix service and the
// aggregation rules are built on.

import (
	"fmt"
	"math"
)

func checkSameLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(a), len(b)))
	}
}

// SqDistSlice returns the squared Euclidean distance between a and b.
func SqDistSlice(a, b []float64) float64 {
	checkSameLen("SqDistSlice", a, b)
	return sqDist(a, b)
}

// sqDist is SqDistSlice without the length check. From 64 elements on,
// every tier runs one lane map (fmaLanes), so the SIMD and scalar builds
// return the same bits.
func sqDist(a, b []float64) float64 {
	switch {
	case len(a) < 64:
		return sqDistScalar(a, b, 0)
	case simdOn:
		return sqDistSIMD(a, b)
	}
	s, i := fmaLanes(a, b, true)
	return s + sqDistScalar(a, b, i)
}

// fmaLanes is the scalar twin of the SIMD distance and dot lanes: element k
// of each whole 16-element block goes to FMA chain k, of the squared
// difference with diff set and of the product otherwise, and the lanes
// reduce as (Y0+Y1)+(Y2+Y3) and then ((s0+s1)+s2)+s3. It returns that sum
// and the index where the tail, which the caller's four scalar chains take,
// starts.
func fmaLanes(a, b []float64, diff bool) (float64, int) {
	var l [16]float64
	i := 0
	for ; i+16 <= len(a); i += 16 {
		ab, bb := a[i:i+16], b[i:i+16]
		if !diff {
			for k := range l {
				l[k] = math.FMA(ab[k], bb[k], l[k])
			}
			continue
		}
		for k := range l {
			d := ab[k] - bb[k]
			l[k] = math.FMA(d, d, l[k])
		}
	}
	var s [4]float64
	for k := range s {
		s[k] = (l[k] + l[4+k]) + (l[8+k] + l[12+k])
	}
	return ((s[0] + s[1]) + s[2]) + s[3], i
}

// SqDistTile adds SqDistSlice(rows[r], cols[c]) to out[r][c] for every pair
// of a tile of a distance matrix, bit-identical to that call per pair. With
// upper set the tile is on the diagonal — cols are the rows — and only the
// pairs c > r are computed. The CPU picks the tier: on AVX-512 two rows run
// against four partners per kernel call, each block of a row loaded once
// for four pairs; on AVX2 a row runs against three partners per call; the
// scalar twin goes pair by pair. Remainders take the next tier down.
func SqDistTile(rows, cols, out [][]float64, upper bool) {
	if len(out) != len(rows) || upper && len(cols) != len(rows) {
		panic(fmt.Sprintf("tensor: SqDistTile has %d rows, %d partners, %d outputs", len(rows), len(cols), len(out)))
	}
	if len(rows) == 0 {
		return
	}
	for _, v := range rows {
		checkSameLen("SqDistTile", rows[0], v)
	}
	for _, v := range cols {
		checkSameLen("SqDistTile", rows[0], v)
	}
	r := 0
	if avx512On && len(rows[0]) >= 64 {
		for ; r+2 <= len(rows); r += 2 {
			c := 0
			if upper {
				out[r][r+1] += sqDist(rows[r], cols[r+1])
				c = r + 2
			}
			for ; c+4 <= len(cols); c += 4 {
				sqDist2x4SIMD(rows[r], rows[r+1], cols[c:c+4], out[r][c:c+4], out[r+1][c:c+4])
			}
			sqDistRow(rows[r], cols[c:], out[r][c:])
			sqDistRow(rows[r+1], cols[c:], out[r+1][c:])
		}
	}
	for ; r < len(rows); r++ {
		c := 0
		if upper {
			c = r + 1
		}
		sqDistRow(rows[r], cols[c:], out[r][c:])
	}
}

// sqDistRow adds sqDist(a, bs[k]) to out[k] for every partner; on AVX2
// three partners share each load of a.
func sqDistRow(a []float64, bs [][]float64, out []float64) {
	k := 0
	if simdOn && len(a) >= 64 {
		for ; k+3 <= len(bs); k += 3 {
			d0, d1, d2 := sqDist3SIMD(a, bs[k], bs[k+1], bs[k+2])
			out[k] += d0
			out[k+1] += d1
			out[k+2] += d2
		}
	}
	for ; k < len(bs); k++ {
		out[k] += sqDist(a, bs[k])
	}
}

// DotSlice returns the inner product of a and b, in sqDist's lane order on
// every tier.
func DotSlice(a, b []float64) float64 {
	checkSameLen("DotSlice", a, b)
	switch {
	case len(a) < 64:
		return dotScalar(a, b, 0)
	case simdOn:
		return dotSIMD(a, b)
	}
	s, i := fmaLanes(a, b, false)
	return s + dotScalar(a, b, i)
}

// AddSlice performs dst += src element-wise. The SIMD and scalar paths are
// bit-identical: addition is purely element-wise.
func AddSlice(dst, src []float64) {
	checkSameLen("AddSlice", dst, src)
	if simdOn && len(dst) >= 64 {
		addSIMD(dst, src)
		return
	}
	addScalar(dst, src, 0)
}

// sqDistScalar accumulates the squared distance of a[i:] vs b[i:] with four
// independent chains: all of a vector under 64 elements, the tail past the
// last 16-element block otherwise.
func sqDistScalar(a, b []float64, i int) float64 {
	var s0, s1, s2, s3 float64
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return ((s0 + s1) + s2) + s3
}

func dotScalar(a, b []float64, i int) float64 {
	var s0, s1, s2, s3 float64
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

func addScalar(dst, src []float64, i int) {
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}
