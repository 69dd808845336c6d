package population

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
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

// TestHierarchicalWarmAggregateAlloc: a warm hierarchy refills its buckets
// and selection, and its mKrum tiers their matrices, so an Aggregate at
// K = 100 over two groups allocates less than the group tier's two
// matrices of (K/2)² distances used to, K²·8/2 bytes.
func TestHierarchicalWarmAggregateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const k, dim = 100, 16
	rng := rand.New(rand.NewSource(3))
	updates := make([]fl.Update, k)
	for i := range updates {
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
		}
		updates[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 10}
	}
	h := &Hierarchical{Groups: 2, Group: &defense.MultiKrum{F: 2}, Server: &defense.MultiKrum{F: 1}}
	aggregate := func() {
		if _, _, err := h.Aggregate(nil, updates); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		aggregate()
	}
	if got, bound := allocBytesPerRun(20, aggregate), k*k*8/2; got >= float64(bound) {
		t.Errorf("%s: a warm Aggregate at K=%d allocates %.0f bytes, want < %d", h.Name(), k, got, bound)
	}
}

// TestColdShardAllocBelowSource: deriving a shard re-seeds a pooled stream
// in place, so a cold Shard allocates less than one math/rand source
// (4.9 kB) under every partition kind.
func TestColdShardAllocBelowSource(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const sourceBytes = 4864
	train, _ := dataset.Generate(dataset.TinySpec(), 1)
	for _, kind := range []Kind{IID, Label, Quantity} {
		pop, err := New(Spec{Kind: kind, TotalClients: 1 << 20, Seed: 7, Beta: 0.5, MeanShard: 32, Cache: 64}, train)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		cold := func() {
			pop.Shard(id)
			id++
		}
		// Fill the cache past its bound first, so the measured misses evict
		// as many entries as they add.
		for range 256 {
			cold()
		}
		if got := allocBytesPerRun(256, cold); got >= sourceBytes {
			t.Errorf("%s: a cold Shard allocates %.0f bytes, want < %d", kind, got, sourceBytes)
		}
	}
}
