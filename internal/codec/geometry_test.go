package codec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// encodeRound builds one round of frames plus the dense deltas they encode.
func encodeRound(tb testing.TB, spec Spec, n, dim int) (frames []*Frame, deltas [][]float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(29))
	global := make([]float64, dim)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	enc := NewEncoder(spec)
	for c := 0; c < n; c++ {
		weights := make([]float64, dim)
		for i := range weights {
			weights[i] = global[i] + 0.05*rng.NormFloat64()
		}
		f := enc.Encode(c, 1, global, weights)
		frames = append(frames, f)
		delta := make([]float64, dim)
		if f.IsDelta() {
			f.AddDelta(delta)
		} else {
			for i := range delta {
				delta[i] = f.Val[i] - global[i]
			}
		}
		deltas = append(deltas, delta)
	}
	return frames, deltas
}

func TestSqDistMatrixMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"dense-int8", Spec{Quant: Int8}},
		{"sparse-raw", Spec{Quant: Raw, TopK: 0.2}},
		{"sparse-int8", Spec{Quant: Int8, TopK: 0.3}},
		{"sparse-fp16", Spec{Quant: FP16, TopK: 0.1, EF: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames, deltas := encodeRound(t, tc.spec, 9, 2*Block+77)
			got := SqDistMatrix(frames)
			if got == nil {
				t.Fatal("no compressed-domain path for a homogeneous frame set")
			}
			want := vec.SqDistMatrix(deltas)
			for i := range want {
				for j := range want[i] {
					d := math.Abs(got[i][j] - want[i][j])
					if d > 1e-9*(1+want[i][j]) {
						t.Fatalf("D[%d][%d] = %v, dense reference %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// refSparseSqDist is the pair-at-a-time sparse matrix the tile walk
// replaced, kept as the reference: row i scattered dense, every later frame
// dotted against it.
func refSparseSqDist(frames []*Frame) [][]float64 {
	n := len(frames)
	m := newSquare(n)
	dense := make([]float64, frames[0].Dim)
	for i, fi := range frames {
		for k, id := range fi.Idx {
			dense[id] = fi.Val[k]
		}
		for j := i + 1; j < n; j++ {
			fj := frames[j]
			d := dot4(fi.Val, fi.Val) + dot4(fj.Val, fj.Val) - 2*SparseDotDense(fj.Idx, fj.Val, dense)
			m[i][j], m[j][i] = max(d, 0), max(d, 0)
		}
		for _, id := range fi.Idx {
			dense[id] = 0
		}
	}
	return m
}

// refInt8SqDist is the pair-at-a-time int8 matrix, likewise: exact block
// dots combined with the scales in ascending block order.
func refInt8SqDist(frames []*Frame) [][]float64 {
	n := len(frames)
	dim := frames[0].Dim
	blocks, tail := dim/Block, dim%Block
	dots := make([]int64, (dim+Block-1)/Block)
	cross := func(fi, fj *Frame) float64 {
		blockDots(fi.Q, fj.Q, blocks, tail, dots)
		s := 0.0
		for b, dot := range dots {
			s += fi.Scales[b] * fj.Scales[b] * float64(dot)
		}
		return s
	}
	m := newSquare(n)
	for i, fi := range frames {
		for j := i + 1; j < n; j++ {
			fj := frames[j]
			d := cross(fi, fi) + cross(fj, fj) - 2*cross(fi, fj)
			m[i][j], m[j][i] = max(d, 0), max(d, 0)
		}
	}
	return m
}

// TestSqDistMatrixBitEqualPairAtATime is the tile walk's contract for the
// compressed-domain kernels: at sizes around the tile edge, dimensions
// around the quantization block and the dense kernels' boundaries, and any
// worker count, both matrices are == their pair-at-a-time reference.
func TestSqDistMatrixBitEqualPairAtATime(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, tc := range []struct {
		spec Spec
		ref  func([]*Frame) [][]float64
	}{
		{Spec{Quant: Int8}, refInt8SqDist},
		{Spec{Quant: Int8, TopK: 0.1, EF: true}, refSparseSqDist},
	} {
		for _, dim := range []int{1, 63, 64, 65, 4096, 8192, 8193, 10010} {
			for _, n := range []int{1, 2, 3, vec.TileEdge - 1, vec.TileEdge, vec.TileEdge + 1, 67} {
				frames, _ := encodeRound(t, tc.spec, n, dim)
				want := tc.ref(frames)
				for _, w := range []int{1, 2, 8} {
					tensor.SetWorkers(w)
					if got := SqDistMatrix(frames); !reflect.DeepEqual(got, want) {
						t.Fatalf("spec %q n=%d dim=%d workers=%d differs from the pair-at-a-time reference", tc.spec, n, dim, w)
					}
				}
			}
		}
	}
}

func TestSqDistMatrixFallbacks(t *testing.T) {
	densef, _ := encodeRound(t, Spec{Quant: FP16}, 3, Block)
	if SqDistMatrix(densef) != nil {
		t.Fatal("dense fp16 has no exact compressed path; want nil")
	}
	raw, _ := encodeRound(t, Spec{Quant: Raw}, 3, Block)
	if SqDistMatrix(raw) != nil {
		t.Fatal("dense raw carries weights; want nil (dense geometry)")
	}
	sparse, _ := encodeRound(t, Spec{Quant: Raw, TopK: 0.2}, 3, Block)
	if SqDistMatrix(append(sparse, nil)) != nil {
		t.Fatal("missing frame; want nil")
	}
	mixed := append(append([]*Frame{}, sparse[:2]...), densef[0])
	if SqDistMatrix(mixed) != nil {
		t.Fatal("mixed sparse/dense; want nil")
	}
	if SqDistMatrix(nil) != nil {
		t.Fatal("empty set; want nil")
	}
}

func TestSparseDotDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dense := make([]float64, 500)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	for _, k := range []int{0, 1, 3, 17, 100} {
		idx := make([]int32, k)
		val := make([]float64, k)
		seen := map[int32]bool{}
		for t2 := range idx {
			id := int32(rng.Intn(len(dense)))
			for seen[id] {
				id = int32(rng.Intn(len(dense)))
			}
			seen[id] = true
			idx[t2] = id
			val[t2] = rng.NormFloat64()
		}
		want := 0.0
		for t2 := range idx {
			want += val[t2] * dense[idx[t2]]
		}
		got := SparseDotDense(idx, val, dense)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("k=%d: SparseDotDense = %v, want %v", k, got, want)
		}
	}
}
