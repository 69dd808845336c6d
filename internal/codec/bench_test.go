package codec

import (
	"fmt"
	"testing"

	"repro/internal/vec"
)

// benchWeights builds a synthetic round: a global model of dimension d and
// K client weight vectors that differ from it by small structured deltas.
func benchWeights(K, d int) (global []float64, ws [][]float64) {
	global = make([]float64, d)
	for i := range global {
		global[i] = 0.01 * float64(i%97)
	}
	ws = make([][]float64, K)
	for c := range ws {
		w := make([]float64, d)
		for i := range w {
			w[i] = global[i] + 0.001*float64((i+c)%31-15)
		}
		ws[c] = w
	}
	return global, ws
}

// BenchmarkRoundTransport measures one server round's transport + geometry
// cost per codec: client-side encode, wire serialization, server-side
// fail-closed decode, reconstruction against the global model, and the
// pairwise squared-distance geometry the Krum-family defenses consume —
// compressed-domain where the codec allows it, dense otherwise. The "off"
// variant is the legacy pipeline: dense float64 updates (8·d·K wire bytes,
// counted, not serialized — the legacy server does no transcoding) and the
// dense distance matrix. bytes/round reports the total update payload the
// round moves; the K=500/d=10k int8-top10-ef vs off pair is the
// acceptance cell (≥4× fewer bytes at latency parity).
func BenchmarkRoundTransport(b *testing.B) {
	codecs := []struct {
		name string
		spec Spec
	}{
		{"off", Spec{}},
		{"fp16", Spec{Quant: FP16}},
		{"int8", Spec{Quant: Int8}},
		{"int8-top10-ef", Spec{Quant: Int8, TopK: 0.1, EF: true}},
	}
	cells := []struct{ K, d int }{
		{50, 10000},
		{500, 10000},
		{50, 100000},
	}
	for _, cell := range cells {
		global, ws := benchWeights(cell.K, cell.d)
		for _, cdc := range codecs {
			b.Run(fmt.Sprintf("K%d_d%d_%s", cell.K, cell.d, cdc.name), func(b *testing.B) {
				enc := NewEncoder(cdc.spec)
				frames := make([]*Frame, cell.K)
				recs := make([][]float64, cell.K)
				roundBytes := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					roundBytes = 0
					if enc == nil {
						roundBytes = cell.K * 8 * cell.d
						_ = vec.SqDistMatrix(ws)
						continue
					}
					for c := range ws {
						wire := EncodeWire(enc.Encode(c, i, global, ws[c]))
						roundBytes += len(wire)
						df, err := DecodeWire(wire, cell.d)
						if err != nil {
							b.Fatal(err)
						}
						frames[c] = df
						recs[c] = df.Reconstruct(global)
					}
					if m := SqDistMatrix(frames); m == nil {
						_ = vec.SqDistMatrix(recs)
					}
				}
				b.ReportMetric(float64(roundBytes), "bytes/round")
			})
		}
	}
}

// BenchmarkEncode isolates the client-side cost of one update encode at the
// production point (int8, 10% top-k, error feedback).
func BenchmarkEncode(b *testing.B) {
	const d = 100000
	global, ws := benchWeights(1, d)
	enc := NewEncoder(Spec{Quant: Int8, TopK: 0.1, EF: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(0, i, global, ws[0])
	}
}

// BenchmarkEncodeGaussian is the same encode at the ladder's shape (d = 10k)
// on Gaussian deltas: benchWeights has 31 distinct delta values, so
// BenchmarkEncode's top-k selection resolves ties, not magnitudes.
func BenchmarkEncodeGaussian(b *testing.B) {
	global, ws := roundWeights(1, 10000)
	enc := NewEncoder(Spec{Quant: Int8, TopK: 0.1, EF: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(0, i, global, ws[0])
	}
}

// BenchmarkSqDistMatrixSparse isolates the compressed-domain geometry for a
// 50-frame sparse round at d=100k.
func BenchmarkSqDistMatrixSparse(b *testing.B) {
	const K, d = 50, 100000
	global, ws := benchWeights(K, d)
	enc := NewEncoder(Spec{Quant: Int8, TopK: 0.1})
	frames := make([]*Frame, K)
	for c := range ws {
		frames[c] = enc.Encode(c, 0, global, ws[c])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if SqDistMatrix(frames) == nil {
			b.Fatal("sparse geometry fell back to dense")
		}
	}
}

// BenchmarkSqDistMatrixSparseK500 is the same geometry at the ladder's
// socket_k500_int8topk shape: 500 frames of 1 000 kept coordinates, d = 10k.
func BenchmarkSqDistMatrixSparseK500(b *testing.B) {
	frames, _ := encodeRound(b, Spec{Quant: Int8, TopK: 0.1, EF: true}, 500, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if SqDistMatrix(frames) == nil {
			b.Fatal("sparse geometry fell back to dense")
		}
	}
}
