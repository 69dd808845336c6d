package population

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func tinyTrain(t testing.TB) *dataset.Dataset {
	t.Helper()
	train, _ := dataset.Generate(dataset.TinySpec(), 1)
	return train
}

func specs(n int) []Spec {
	return []Spec{
		{Kind: IID, TotalClients: n, Seed: 7, MeanShard: 12},
		{Kind: Label, TotalClients: n, Seed: 7, Beta: 0.5, MeanShard: 12},
		{Kind: Label, TotalClients: n, Seed: 7, Beta: 0.1, MeanShard: 12},
		{Kind: Quantity, TotalClients: n, Seed: 7, Beta: 0.5, MeanShard: 12},
	}
}

func equalShards(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLazyMatchesEager pins the subsystem's core contract: materializing
// client i lazily is bit-identical to slicing the eagerly-partitioned
// population, for every partition kind, for any cache size, and
// independently of materialization order.
func TestLazyMatchesEager(t *testing.T) {
	train := tinyTrain(t)
	const n = 300
	for _, spec := range specs(n) {
		for _, cache := range []int{1, 3, 97, n + 1} {
			s := spec
			s.Cache = cache
			eagerPop, err := New(s, train)
			if err != nil {
				t.Fatal(err)
			}
			eager := eagerPop.materializeAll()

			lazy, err := New(s, train)
			if err != nil {
				t.Fatal(err)
			}
			// Touch clients in a scrambled order, with repeats, so cache
			// hits, misses and evictions all occur.
			order := rand.New(rand.NewSource(42)).Perm(n)
			order = append(order, order[:n/2]...)
			for _, id := range order {
				if got := lazy.Shard(id); !equalShards(got, eager[id]) {
					t.Fatalf("kind=%s cache=%d: client %d lazy %v != eager %v",
						s.Kind, cache, id, got, eager[id])
				}
			}
			if got := lazy.cacheLen(); got > cache {
				t.Fatalf("kind=%s: cache holds %d shards, cap %d", s.Kind, got, cache)
			}
		}
	}
}

// TestConcurrentShardsMatchEager: goroutines deriving at once share the
// pooled derivation streams, and each derivation still re-seeds its own —
// every shard and shard size equals the eager one.
func TestConcurrentShardsMatchEager(t *testing.T) {
	train := tinyTrain(t)
	const n, workers = 200, 4
	for _, spec := range specs(n) {
		spec.Cache = 1 // nearly every touch derives
		ref, err := New(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		eager := ref.materializeAll()
		pop, err := New(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, id := range rand.New(rand.NewSource(int64(w))).Perm(n) {
					if got := pop.Shard(id); !equalShards(got, eager[id]) {
						t.Errorf("kind=%s: client %d concurrent %v != eager %v", spec.Kind, id, got, eager[id])
						return
					}
					if got := pop.ShardSize(id); got != len(eager[id]) {
						t.Errorf("kind=%s: client %d ShardSize %d != %d", spec.Kind, id, got, len(eager[id]))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestShardSizeMatchesShard pins ShardSize's O(1) contract against the
// materialized length for every kind.
func TestShardSizeMatchesShard(t *testing.T) {
	train := tinyTrain(t)
	for _, spec := range specs(64) {
		pop, err := New(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 64; id++ {
			if got, want := pop.ShardSize(id), len(pop.Shard(id)); got != want {
				t.Fatalf("kind=%s: client %d ShardSize %d != len(Shard) %d", spec.Kind, id, got, want)
			}
		}
	}
}

// TestShardIndicesInRange checks every derived index addresses the dataset.
func TestShardIndicesInRange(t *testing.T) {
	train := tinyTrain(t)
	for _, spec := range specs(128) {
		pop, err := New(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 128; id += 7 {
			for _, idx := range pop.Shard(id) {
				if idx < 0 || idx >= train.Len() {
					t.Fatalf("kind=%s: client %d holds out-of-range sample %d", spec.Kind, id, idx)
				}
			}
		}
	}
}

// TestLabelSkewIncreasesWithLowerBeta checks the Label kind actually skews:
// a client's label distribution concentrates as Beta shrinks.
func TestLabelSkewIncreasesWithLowerBeta(t *testing.T) {
	train := tinyTrain(t)
	het := func(beta float64) float64 {
		pop, err := New(Spec{Kind: Label, TotalClients: 200, Seed: 5, Beta: beta, MeanShard: 20}, train)
		if err != nil {
			t.Fatal(err)
		}
		return majorityShare(train.Labels, pop.materializeAll(), train.Classes)
	}
	low, high := het(0.05), het(50)
	if low <= high {
		t.Fatalf("beta=0.05 heterogeneity %v should exceed beta=50's %v", low, high)
	}
}

// majorityShare is the mean, over non-empty shards, of the share a shard's
// most common label takes: about 1/classes for i.i.d. shards, 1 when every
// client holds one class.
func majorityShare(labels []int, shards [][]int, classes int) float64 {
	sum, counted := 0.0, 0
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		counts := make([]int, classes)
		top := 0
		for _, idx := range shard {
			counts[labels[idx]]++
			top = max(top, counts[labels[idx]])
		}
		sum += float64(top) / float64(len(shard))
		counted++
	}
	return sum / float64(counted)
}

// TestQuantitySkewVariance checks the Quantity kind spreads shard sizes
// while keeping the mean near MeanShard.
func TestQuantitySkewVariance(t *testing.T) {
	train := tinyTrain(t)
	pop, err := New(Spec{Kind: Quantity, TotalClients: 2000, Seed: 5, Beta: 0.3, MeanShard: 30}, train)
	if err != nil {
		t.Fatal(err)
	}
	sum, minSize, maxSize := 0, int(1<<30), 0
	for id := 0; id < 2000; id++ {
		s := pop.ShardSize(id)
		sum += s
		if s < minSize {
			minSize = s
		}
		if s > maxSize {
			maxSize = s
		}
	}
	mean := float64(sum) / 2000
	if mean < 20 || mean > 40 {
		t.Fatalf("mean shard size %v too far from MeanShard 30", mean)
	}
	if maxSize < 2*minSize {
		t.Fatalf("quantity skew too flat: min %d max %d", minSize, maxSize)
	}
}

// TestCacheReuse pins the caching contract: repeated access within the
// capacity derives each shard once, and eviction bounds the held set.
func TestCacheReuse(t *testing.T) {
	train := tinyTrain(t)
	pop, err := New(Spec{Kind: IID, TotalClients: 1000, Seed: 3, MeanShard: 8, Cache: 10}, train)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for id := 0; id < 10; id++ {
			pop.Shard(id)
		}
	}
	if got := pop.Derivations(); got != 10 {
		t.Fatalf("working set within capacity derived %d times, want 10", got)
	}
	for id := 0; id < 1000; id++ {
		pop.Shard(id)
	}
	if got := pop.cacheLen(); got != 10 {
		t.Fatalf("cache holds %d shards after sweep, cap 10", got)
	}
}

func TestSpecValidate(t *testing.T) {
	train := tinyTrain(t)
	bad := []Spec{
		{Kind: "mesh", TotalClients: 10, MeanShard: 4},
		{Kind: Label, TotalClients: 10, MeanShard: 4},              // Beta required
		{Kind: Quantity, TotalClients: 10, MeanShard: 4, Beta: -1}, // Beta > 0
		{Kind: IID, TotalClients: 0, MeanShard: 4},                 // N > 0
		{Kind: IID, TotalClients: 10, MeanShard: 0},                // shard > 0
		{Kind: IID, TotalClients: 10, MeanShard: 4, Cache: -1},     // cache >= 0
	}
	for i, s := range bad {
		if _, err := New(s, train); err == nil {
			t.Errorf("spec %d should fail: %+v", i, s)
		}
	}
}

func TestPlacements(t *testing.T) {
	train := tinyTrain(t)
	const n = 10000
	pop, err := New(Spec{Kind: Quantity, TotalClients: n, Seed: 9, Beta: 0.3, MeanShard: 16}, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"first", "scatter", "sybil", "sizecorr"} {
		p, err := PlacementByName(name, n, 0.05, 11, pop)
		if err != nil {
			t.Fatal(err)
		}
		// Total must agree with an exhaustive membership scan, and
		// membership must be stable across queries.
		flags := make([]bool, n)
		count := 0
		for id := 0; id < n; id++ {
			flags[id] = p.IsMalicious(id)
			if flags[id] {
				count++
			}
		}
		if got := p.Total(); got != count {
			t.Errorf("%s: Total %d != scan %d", name, got, count)
		}
		for id := 0; id < n; id += 97 {
			if p.IsMalicious(id) != flags[id] {
				t.Errorf("%s: membership of %d not stable", name, id)
			}
		}
		// Every placement should land near the requested 5% fraction.
		if count < n*3/100 || count > n*8/100 {
			t.Errorf("%s: placed %d attackers of %d, want ≈5%%", name, count, n)
		}
	}
	if _, err := PlacementByName("quantum", n, 0.05, 11, pop); err == nil {
		t.Fatal("unknown placement should error")
	}
	if _, err := PlacementByName("sizecorr", n, 0.05, 11, nil); err == nil {
		t.Fatal("sizecorr without a population should error")
	}
}

// TestSybilBurstContiguous pins the burst block shape.
func TestSybilBurstContiguous(t *testing.T) {
	p := NewSybilBurst(1000, 50, 3)
	if p.K != 50 || p.Start < 0 || p.Start+p.K > 1000 {
		t.Fatalf("burst [%d, %d) outside population", p.Start, p.Start+p.K)
	}
	for id := 0; id < 1000; id++ {
		want := id >= p.Start && id < p.Start+p.K
		if p.IsMalicious(id) != want {
			t.Fatalf("burst membership of %d wrong", id)
		}
	}
}

func TestFloydSampler(t *testing.T) {
	s := FloydSampler{K: 50}
	rng := rand.New(rand.NewSource(1))
	ids := s.Sample(rng, 0, 1000000)
	if len(ids) != 50 {
		t.Fatalf("sampled %d ids, want 50", len(ids))
	}
	seen := map[int]bool{}
	last := -1
	for _, id := range ids {
		if id < 0 || id >= 1000000 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		if id <= last {
			t.Fatalf("ids not sorted: %v", ids)
		}
		seen[id] = true
		last = id
	}
	// Determinism under a fixed stream.
	again := s.Sample(rand.New(rand.NewSource(1)), 0, 1000000)
	if !equalShards(ids, again) {
		t.Fatal("sampling not deterministic for a fixed seed")
	}
	// K > N clamps to a permutation-like full selection.
	small := s.Sample(rng, 0, 8)
	if len(small) != 8 {
		t.Fatalf("K>N should clamp to N, got %d", len(small))
	}
}
