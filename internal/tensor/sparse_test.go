package tensor

import (
	"math/rand"
	"testing"
)

// refSparseDot is the single-row four-chain sparse·dense dot SparseDot4's
// lanes must each equal bit for bit.
func refSparseDot(idx []int32, val, dense []float64) float64 {
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

// sparseDot4Operands draws k ascending indices below dim (the last one
// dim-1, so the highest row group is read), values for them, and four dense
// rows plus their interleaving.
func sparseDot4Operands(rng *rand.Rand, k, dim int) (idx []int32, val []float64, dense [4][]float64, rows []float64) {
	seen := make([]bool, dim)
	if k > 0 {
		seen[dim-1] = true
		for _, p := range rng.Perm(dim - 1)[:k-1] {
			seen[p] = true
		}
	}
	for id, ok := range seen {
		if ok {
			idx = append(idx, int32(id))
		}
	}
	val = make([]float64, k)
	for t := range val {
		val[t] = rng.NormFloat64()
	}
	rows = make([]float64, 4*dim)
	for r := range dense {
		dense[r] = make([]float64, dim)
		for i := range dense[r] {
			dense[r][i] = rng.NormFloat64()
			rows[4*i+r] = dense[r][i]
		}
	}
	return idx, val, dense, rows
}

// TestSparseDot4BitEqualFourChains checks the dispatched kernel and the
// scalar twin against four single-row dots, around the group-of-four and
// tail boundaries. Under -tags purego the dispatched kernel is the twin.
func TestSparseDot4BitEqualFourChains(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{0, 1, 3, 4, 5, 17, 1000} {
		idx, val, dense, rows := sparseDot4Operands(rng, k, 1500)
		got := SparseDot4(idx, val, rows)
		twin := sparseDot4Scalar(idx, val, rows)
		for r := range dense {
			want := refSparseDot(idx, val, dense[r])
			if got[r] != want || twin[r] != want {
				t.Fatalf("k=%d lane %d: dispatched %v, scalar twin %v, single-row reference %v", k, r, got[r], twin[r], want)
			}
		}
	}
}

// TestSparseDot4RejectsBadOperands pins the checks that run before the
// unchecked kernel: mismatched lengths and an end of idx outside the rows.
func TestSparseDot4RejectsBadOperands(t *testing.T) {
	rows := make([]float64, 4*8)
	for name, call := range map[string]func(){
		"length mismatch": func() { SparseDot4([]int32{1, 2}, []float64{1}, rows) },
		"negative first":  func() { SparseDot4([]int32{-1, 2}, []float64{1, 1}, rows) },
		"last beyond":     func() { SparseDot4([]int32{1, 8}, []float64{1, 1}, rows) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: SparseDot4 did not panic", name)
				}
			}()
			call()
		}()
	}
}

func BenchmarkSparseDot4(b *testing.B) {
	const k, dim = 1000, 10000
	idx, val, _, rows := sparseDot4Operands(rand.New(rand.NewSource(43)), k, dim)
	var sink [4]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = SparseDot4(idx, val, rows)
	}
	_ = sink
}
