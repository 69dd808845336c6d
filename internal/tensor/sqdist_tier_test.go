package tensor_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vec"
)

func tierName() string {
	switch {
	case *tensor.AVX512On:
		return "avx512 2x4"
	case *tensor.SIMDOn:
		return "avx2 1x3"
	}
	return "scalar"
}

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, dim)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64()
		}
	}
	return vs
}

// TestSqDistTileMatchesSqDistSlice pins the block entry to the pair kernel
// on whichever tier this CPU and build run: every output is its starting
// value plus the SqDistSlice of its pair, ==, for 1–5 rows against 0–9
// partners (every remainder of the two-row, four- and three-partner
// kernels) and for the diagonal tile over 1–5 rows, at lengths around the
// 16-element block, the 64-element SIMD threshold and the 4096-long
// dimension block. One partner is a row itself and two share storage. On
// an AVX-512 CPU the whole K=67, d=10010 matrix must also be the same with
// that tier forced off; elsewhere that subtest skips.
func TestSqDistTileMatchesSqDistSlice(t *testing.T) {
	t.Logf("sqdist tier: %s", tierName())
	rng := rand.New(rand.NewSource(7))
	check := func(rows, cols [][]float64, upper bool) {
		t.Helper()
		out := randRows(rng, len(rows), len(cols))
		want := make([][]float64, len(rows))
		for r := range out {
			want[r] = slices.Clone(out[r])
			for c := range cols {
				if !upper || c > r {
					want[r][c] += tensor.SqDistSlice(rows[r], cols[c])
				}
			}
		}
		tensor.SqDistTile(rows, cols, out, upper)
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("dim=%d rows=%d partners=%d upper=%v: tile differs from SqDistSlice per pair", len(rows[0]), len(rows), len(cols), upper)
		}
	}
	for _, dim := range []int{1, 15, 16, 63, 64, 65, 4096, 4097, 10010} {
		for nr := 1; nr <= 5; nr++ {
			rows := randRows(rng, nr, dim)
			check(rows, rows, true)
			for nc := 0; nc <= 9; nc++ {
				cols := randRows(rng, nc, dim)
				if nc > 2 {
					cols[1] = rows[0]    // distance to itself
					cols[2] = cols[nc-1] // two partners sharing storage
				}
				check(rows, cols, false)
			}
		}
	}

	t.Run("avx512-vs-avx2", func(t *testing.T) {
		if !*tensor.AVX512On {
			t.Skip("no AVX-512 on this CPU or build: the two-row tier cannot be compared with the one-row tier")
		}
		vs := randRows(rng, 67, 10010)
		on := vec.SqDistMatrix(vs)
		*tensor.AVX512On = false
		defer func() { *tensor.AVX512On = true }()
		t.Logf("sqdist tier: %s", tierName())
		if off := vec.SqDistMatrix(vs); !reflect.DeepEqual(on, off) {
			t.Fatal("K=67, d=10010 matrix differs between the avx512 and avx2 tiers")
		}
	})
}
