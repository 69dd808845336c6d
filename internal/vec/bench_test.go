package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSqDistMatrix measures the dense distance matrix at the three
// shapes the benchmark ladder probes: a paper round (K=10, DeepCNN-sized
// vectors), a production flat cell (K=100, FashionCNN-sized) and the
// K=500, d=10010 socket round whose 40 MB working set is what the tile
// walk exists for.
func BenchmarkSqDistMatrix(b *testing.B) {
	for _, tc := range []struct{ k, d int }{{10, 27000}, {100, 6500}, {500, 10010}} {
		b.Run(fmt.Sprintf("K%d_d%d", tc.k, tc.d), func(b *testing.B) {
			vs := randVecs(rand.New(rand.NewSource(1)), tc.k, tc.d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SqDistMatrix(vs)
			}
		})
	}
}
