package defense

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fl"
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
