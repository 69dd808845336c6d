//go:build amd64 && !purego

package tensor

// avxSparseDot4 computes out[r] = Σ_t val[t]·rows[4·idx[t]+r] for r < 4 and
// t < k: per position one broadcast of val[t], one VMULPD against the
// 32-byte group rows[4·idx[t]:] and one VADDPD into accumulator t mod 4
// (tail positions into accumulator 0), reduced as ((Y0+Y1)+Y2)+Y3. Separate
// multiply and add keep every lane bit-identical to the scalar chains. No
// index is checked.
//
//go:noescape
func avxSparseDot4(idx *int32, val *float64, k int, rows, out *float64)
