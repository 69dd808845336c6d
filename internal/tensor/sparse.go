package tensor

import "fmt"

// SparseDot4 returns the inner products of one sparse vector with four
// dense rows stored interleaved: d[r] = Σ_t val[t]·rows[4·idx[t]+r]. One
// index addresses the four rows' values as one 32-byte load, so the sparse
// operand is walked once for four results — the shape a tile of the
// compressed-domain distance matrix needs, where every partner frame meets
// the same four scattered rows.
//
// Each lane accumulates exactly as a single-row sparse·dense dot with four
// chains does: position t adds val[t]·row[idx[t]] (multiply, then add — not
// fused) into chain t mod 4, positions past the last full group of four go
// into chain 0, and the result is ((s0+s1)+s2)+s3. The SIMD kernel and the
// scalar twin are therefore bit-identical to each other and to four such
// dots.
//
// The gathers are unchecked on the SIMD build: idx must be ascending with
// every index in [0, len(rows)/4). Only the lengths and the two ends of idx
// are verified here; callers validate ordering once per operand, not per
// call.
func SparseDot4(idx []int32, val, rows []float64) (d [4]float64) {
	k := len(idx)
	if len(val) != k {
		panic(fmt.Sprintf("tensor: SparseDot4 has %d indices, %d values", k, len(val)))
	}
	if k == 0 {
		return d
	}
	if idx[0] < 0 || 4*int(idx[k-1])+4 > len(rows) {
		panic(fmt.Sprintf("tensor: SparseDot4 indices [%d, %d] outside %d interleaved rows of 4", idx[0], idx[k-1], len(rows)/4))
	}
	if simdOn {
		avxSparseDot4(&idx[0], &val[0], k, &rows[0], &d[0])
		return d
	}
	return sparseDot4Scalar(idx, val, rows)
}

// sparseDot4Scalar is the portable SparseDot4, a chain at a time: walk c
// visits the positions t ≡ c (mod 4) — chain 0 then also the tail — and
// accumulates the four lanes of that chain in four registers, so every
// position's 32-byte row group is read once and nothing spills. (All four
// chains in one walk need sixteen live accumulators; a walk per lane reads
// every group four times.)
func sparseDot4Scalar(idx []int32, val, rows []float64) (d [4]float64) {
	val = val[:len(idx)]
	full := len(idx) &^ 3
	var s [4][4]float64 // s[chain][lane]
	for c := range s {
		var s0, s1, s2, s3 float64
		add := func(t int) {
			v, g := val[t], rows[4*int(idx[t]):][:4]
			s0 += v * g[0]
			s1 += v * g[1]
			s2 += v * g[2]
			s3 += v * g[3]
		}
		for t := c; t < full; t += 4 {
			add(t)
		}
		if c == 0 {
			for t := full; t < len(idx); t++ {
				add(t)
			}
		}
		s[c] = [4]float64{s0, s1, s2, s3}
	}
	for r := range d {
		d[r] = ((s[0][r] + s[1][r]) + s[2][r]) + s[3][r]
	}
	return d
}
