package defense

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/vec"
)

// allocBytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls.
func allocBytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestKrumFamilyWarmAggregateAlloc: a warm Krum-family rule refills its
// scratch — the distance matrix, the scores, the selection, the sorted rows
// — so an Aggregate at K = 100 allocates less than the K×K matrix (K²·8
// bytes) it used to allocate every round.
func TestKrumFamilyWarmAggregateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const k, dim = 100, 16
	updates, _ := cluster(rand.New(rand.NewSource(3)), dim, k-10, 10, 5)
	for _, agg := range []fl.Aggregator{&MultiKrum{F: 10, M: 1}, &MultiKrum{F: 10}, &Bulyan{F: 10}} {
		aggregate := func() {
			if _, _, err := agg.Aggregate(nil, updates); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			aggregate()
		}
		if got := allocBytesPerRun(20, aggregate); got >= k*k*8 {
			t.Errorf("%s: a warm Aggregate at K=%d allocates %.0f bytes, want < %d", agg.Name(), k, got, k*k*8)
		}
	}
}

// TestSqDistGeometryWarmAllocs: a warm Krum-family scratch builds the
// round's distance matrix allocating only what the matrix kernel itself
// allocates — the frame list and the dense vector list are scratch too —
// on a dense round and on an int8 frame-only one.
func TestSqDistGeometryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const k, dim = 100, 64
	dense, _ := cluster(rand.New(rand.NewSource(3)), dim, k-10, 10, 5)
	global := make([]float64, dim)
	enc := codec.NewEncoder(codec.Spec{Quant: codec.Int8})
	framed := make([]fl.Update, k)
	vecs := make([][]float64, k)
	frames := make([]*codec.Frame, k)
	for i, u := range dense {
		vecs[i] = u.Weights
		frames[i] = enc.Encode(u.ClientID, 0, global, u.Weights)
		framed[i] = fl.Update{ClientID: u.ClientID, NumSamples: u.NumSamples, Frame: frames[i]}
	}
	for _, tc := range []struct {
		name    string
		updates []fl.Update
		kernel  func(dst [][]float64) [][]float64
	}{
		{"dense", dense, func(dst [][]float64) [][]float64 { return vec.SqDistMatrixInto(dst, vecs) }},
		{"int8 frame-only", framed, func(dst [][]float64) [][]float64 { return codec.SqDistMatrixInto(dst, frames) }},
	} {
		var s krumScratch
		s.dist = s.sqDistGeometry(global, tc.updates)
		got := testing.AllocsPerRun(20, func() { s.dist = s.sqDistGeometry(global, tc.updates) })
		want := testing.AllocsPerRun(20, func() { s.dist = tc.kernel(s.dist) })
		if got > want {
			t.Errorf("%s: a warm sqDistGeometry allocates %.0f objects, want the kernel's own %.0f", tc.name, got, want)
		}
	}
}
