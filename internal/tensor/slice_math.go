package tensor

// Flat-slice math kernels shared by the vector layer: squared distance and
// dot product (SIMD-accelerated where available, falling back to unrolled
// scalar loops) and element-wise addition (bit-identical on every path).
// These are the primitives the shared distance-matrix service and the
// aggregation rules are built on.

import "fmt"

func checkSameLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(a), len(b)))
	}
}

// SqDistSlice returns the squared Euclidean distance between a and b.
func SqDistSlice(a, b []float64) float64 {
	checkSameLen("SqDistSlice", a, b)
	if simdOn && len(a) >= 64 {
		return sqDistSIMD(a, b)
	}
	return sqDistScalar(a, b, 0)
}

// SqDistRow writes out[k] = SqDistSlice(a, bs[k]) for every partner,
// bit-identical to that call per partner. Partners are taken three at a
// time through a shared-operand kernel that loads each element of a once
// for all three, which is what lets a tile of a distance matrix run near
// the pair kernel's L2 rate; a remainder of one or two goes through
// SqDistSlice itself.
func SqDistRow(a []float64, bs [][]float64, out []float64) {
	if len(out) != len(bs) {
		panic(fmt.Sprintf("tensor: SqDistRow has %d partners, %d outputs", len(bs), len(out)))
	}
	k := 0
	for ; k+3 <= len(bs); k += 3 {
		b0, b1, b2 := bs[k], bs[k+1], bs[k+2]
		checkSameLen("SqDistRow", a, b0)
		checkSameLen("SqDistRow", a, b1)
		checkSameLen("SqDistRow", a, b2)
		if simdOn && len(a) >= 64 {
			out[k], out[k+1], out[k+2] = sqDist3SIMD(a, b0, b1, b2)
		} else {
			out[k], out[k+1], out[k+2] = sqDist3Scalar(a, b0, b1, b2, 0)
		}
	}
	for ; k < len(bs); k++ {
		out[k] = SqDistSlice(a, bs[k])
	}
}

// DotSlice returns the inner product of a and b.
func DotSlice(a, b []float64) float64 {
	checkSameLen("DotSlice", a, b)
	if simdOn && len(a) >= 64 {
		return dotSIMD(a, b)
	}
	return dotScalar(a, b, 0)
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
// independent chains.
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

// sqDist3Scalar is sqDistScalar for three partners of one a: each pair
// keeps sqDistScalar's four chains, tail and reduction, so every result is
// bit-identical to its own sqDistScalar call; a[i] is loaded once for all
// three.
func sqDist3Scalar(a, b0, b1, b2 []float64, i int) (d0, d1, d2 float64) {
	var p0, p1, p2, p3 float64
	var q0, q1, q2, q3 float64
	var r0, r1, r2, r3 float64
	b0, b1, b2 = b0[:len(a)], b1[:len(a)], b2[:len(a)]
	for ; i+4 <= len(a); i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		e0, e1, e2, e3 := a0-b0[i], a1-b0[i+1], a2-b0[i+2], a3-b0[i+3]
		p0 += e0 * e0
		p1 += e1 * e1
		p2 += e2 * e2
		p3 += e3 * e3
		e0, e1, e2, e3 = a0-b1[i], a1-b1[i+1], a2-b1[i+2], a3-b1[i+3]
		q0 += e0 * e0
		q1 += e1 * e1
		q2 += e2 * e2
		q3 += e3 * e3
		e0, e1, e2, e3 = a0-b2[i], a1-b2[i+1], a2-b2[i+2], a3-b2[i+3]
		r0 += e0 * e0
		r1 += e1 * e1
		r2 += e2 * e2
		r3 += e3 * e3
	}
	for ; i < len(a); i++ {
		ai := a[i]
		e0, e1, e2 := ai-b0[i], ai-b1[i], ai-b2[i]
		p0 += e0 * e0
		q0 += e1 * e1
		r0 += e2 * e2
	}
	return ((p0 + p1) + p2) + p3, ((q0 + q1) + q2) + q3, ((r0 + r1) + r2) + r3
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
