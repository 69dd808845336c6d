package defense

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/fl"
)

// benchUpdates builds a paper-shaped round: 10 updates of DeepCNN size
// (≈27k parameters).
func benchUpdates(n, dim int) []fl.Update {
	rng := rand.New(rand.NewSource(1))
	us := make([]fl.Update, n)
	for i := range us {
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		us[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 50}
	}
	return us
}

func benchAggregator(b *testing.B, agg fl.Aggregator) {
	b.Helper()
	us := benchUpdates(10, 27000)
	global := make([]float64, 27000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := agg.Aggregate(global, us); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedAvg(b *testing.B)      { benchAggregator(b, FedAvg{}) }
func BenchmarkMedian(b *testing.B)      { benchAggregator(b, Median{}) }
func BenchmarkTrimmedMean(b *testing.B) { benchAggregator(b, TrimmedMean{Trim: 2}) }
func BenchmarkMultiKrum(b *testing.B)   { benchAggregator(b, &MultiKrum{F: 2}) }
func BenchmarkBulyan(b *testing.B)      { benchAggregator(b, &Bulyan{F: 2}) }

// BenchmarkMultiKrumK500 is the socket round's aggregation, the shape of the
// ladder's defense.mkrum_k500_dense_ms and defense.mkrum_k500_frames_ms
// rows: K=500 updates of d=10000, dense and as int8 top-10% frames whose
// geometry runs in the compressed domain.
func BenchmarkMultiKrumK500(b *testing.B) {
	const k, dim = 500, 10000
	global := make([]float64, dim)
	dense := benchUpdates(k, dim)
	framed := benchUpdates(k, dim)
	enc := codec.NewEncoder(codec.Spec{Quant: codec.Int8, TopK: 0.1, EF: true})
	for i := range framed {
		framed[i].Frame = enc.Encode(i, 0, global, framed[i].Weights)
		framed[i].Weights = framed[i].Frame.Reconstruct(global)
	}
	for _, tc := range []struct {
		name string
		us   []fl.Update
	}{{"dense", dense}, {"int8-top10-ef", framed}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := (&MultiKrum{F: 100}).Aggregate(global, tc.us); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
