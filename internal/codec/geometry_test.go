package codec

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// roundWeights draws one round's global model and n client weight vectors a
// small Gaussian step away from it.
func roundWeights(n, dim int) (global []float64, ws [][]float64) {
	rng := rand.New(rand.NewSource(29))
	global = make([]float64, dim)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	ws = make([][]float64, n)
	for c := range ws {
		ws[c] = make([]float64, dim)
		for i := range ws[c] {
			ws[c][i] = global[i] + 0.05*rng.NormFloat64()
		}
	}
	return global, ws
}

// encodeRound builds one round of frames plus the dense deltas they encode.
func encodeRound(tb testing.TB, spec Spec, n, dim int) (frames []*Frame, deltas [][]float64) {
	tb.Helper()
	global, ws := roundWeights(n, dim)
	enc := NewEncoder(spec)
	for c, weights := range ws {
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

// SparseDotDense returns Σ_t val[t]·dense[idx[t]] — the single-row
// sparse·dense inner product the four-row kernel replaced, kept as the
// reference its lanes must equal: positions in ascending order over four
// independent chains.
func SparseDotDense(idx []int32, val, dense []float64) float64 {
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

// refSparseSqDist is the pair-at-a-time sparse matrix the tile walk
// replaced, kept as the reference: row i scattered dense, every later frame
// dotted against it.
func refSparseSqDist(frames []*Frame) [][]float64 {
	n := len(frames)
	m := vec.SquareInto(nil, n)
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
	m := vec.SquareInto(nil, n)
	for i, fi := range frames {
		for j := i + 1; j < n; j++ {
			fj := frames[j]
			d := cross(fi, fi) + cross(fj, fj) - 2*cross(fi, fj)
			m[i][j], m[j][i] = max(d, 0), max(d, 0)
		}
	}
	return m
}

// handSparseFrames builds n sparse frames whose kept counts differ per frame
// (1, 3, 4, 5 and every coordinate, clamped to dim) and that all keep the
// last coordinate, dim-1 — shapes no Encoder emits in one round.
func handSparseFrames(n, dim int) []*Frame {
	rng := rand.New(rand.NewSource(37))
	frames := make([]*Frame, n)
	for c := range frames {
		k := min([]int{1, 3, 4, 5, dim}[c%5], dim)
		keep := make([]bool, dim)
		keep[dim-1] = true
		for _, p := range rng.Perm(dim - 1)[:k-1] {
			keep[p] = true
		}
		f := &Frame{Spec: Spec{Quant: Raw, TopK: 0.5}, Dim: dim}
		for id, ok := range keep {
			if ok {
				f.Idx = append(f.Idx, int32(id))
				f.Val = append(f.Val, rng.NormFloat64())
			}
		}
		frames[c] = f
	}
	return frames
}

// TestSqDistMatrixBitEqualPairAtATime is the tile walk's contract for the
// compressed-domain kernels: at sizes around the tile edge and the sparse
// walk's groups of four rows, dimensions around the quantization block and
// the dense kernels' boundaries, and any worker count, both matrices are ==
// their pair-at-a-time reference.
func TestSqDistMatrixBitEqualPairAtATime(t *testing.T) {
	defer tensor.SetWorkers(0)
	encoded := func(spec Spec) func(n, dim int) []*Frame {
		return func(n, dim int) []*Frame {
			frames, _ := encodeRound(t, spec, n, dim)
			return frames
		}
	}
	for _, tc := range []struct {
		name   string
		frames func(n, dim int) []*Frame
		ref    func([]*Frame) [][]float64
	}{
		{"int8", encoded(Spec{Quant: Int8}), refInt8SqDist},
		{"int8,topk=0.1,ef", encoded(Spec{Quant: Int8, TopK: 0.1, EF: true}), refSparseSqDist},
		{"hand-built sparse", handSparseFrames, refSparseSqDist},
	} {
		for _, dim := range []int{1, 63, 64, 65, 4096, 8192, 8193, 10010} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, vec.TileEdge - 1, vec.TileEdge, vec.TileEdge + 1, 67} {
				frames := tc.frames(n, dim)
				want := tc.ref(frames)
				for _, w := range []int{1, 2, 8} {
					tensor.SetWorkers(w)
					if got := SqDistMatrix(frames); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s n=%d dim=%d workers=%d differs from the pair-at-a-time reference", tc.name, n, dim, w)
					}
				}
			}
		}
	}
}

// TestSqDistMatrixRejectsUngatherableFrames pins the verification that makes
// the sparse walk's unchecked gathers safe: a hand-built frame that is
// unsorted, repeats an index, has one outside [0, dim) or carries more
// indices than values panics, naming the frame, before any row is scattered.
func TestSqDistMatrixRejectsUngatherableFrames(t *testing.T) {
	const dim = 32
	good := func() *Frame {
		return &Frame{Spec: Spec{Quant: Raw, TopK: 0.1}, Dim: dim, Idx: []int32{2, 9, 31}, Val: []float64{1, -2, 3}}
	}
	for name, breakIt := range map[string]func(*Frame){
		"unsorted":       func(f *Frame) { f.Idx = []int32{9, 2, 31} },
		"duplicate":      func(f *Frame) { f.Idx = []int32{2, 9, 9} },
		"negative":       func(f *Frame) { f.Idx = []int32{-1, 9, 31} },
		"at dim":         func(f *Frame) { f.Idx = []int32{2, 9, dim} },
		"missing values": func(f *Frame) { f.Val = f.Val[:2] },
		"extra values":   func(f *Frame) { f.Val = append(f.Val, 4) },
	} {
		t.Run(name, func(t *testing.T) {
			frames := []*Frame{good(), good(), good(), good(), good()}
			breakIt(frames[3])
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "SqDistMatrix frame 3") {
					t.Fatalf("want a panic naming frame 3, got %q", msg)
				}
			}()
			SqDistMatrix(frames)
		})
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
