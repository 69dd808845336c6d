package population

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/defense"
	"repro/internal/fl"
)

func newBenchRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

// millionRun executes rounds of a 1,000,000-client population-backed
// federation with 50 participants per round and returns the population for
// cache inspection.
func millionRun(tb testing.TB, rounds int) *Population {
	tb.Helper()
	train, test, _, newModel := tinySimParts(tb, 100)
	pop, err := New(Spec{Kind: Label, TotalClients: 1000000, Seed: 2, Beta: 0.5, MeanShard: 32, Cache: 200}, train)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := popCfg(1000000, 50, rounds)
	place, err := PlacementByName("scatter", 1000000, 0.001, 7, pop)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := fl.NewSimulation(cfg, train, test, pop, place, newModel, &defense.MultiKrum{F: 2}, attackStub{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		tb.Fatal(err)
	}
	return pop
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMillionClientHeapBounded is the acceptance regression: a round over
// 10⁶ virtual clients must grow the heap by no more than the
// materialization cache and the worker models — never by anything O(N).
// (An O(N) [][]int shard table or per-client state would add tens to
// hundreds of MB and trip the bound.)
func TestMillionClientHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("million-client round in -short mode")
	}
	before := heapAlloc()
	pop := millionRun(t, 2)
	growth := int64(heapAlloc()) - int64(before)
	const bound = 32 << 20
	if growth > bound {
		t.Fatalf("heap grew %d bytes over a 1M-client run, bound %d", growth, bound)
	}
	if got := pop.CacheLen(); got > 200 {
		t.Fatalf("materialization cache holds %d shards, cap 200", got)
	}
}

// BenchmarkPopulationRound1M measures one full federated round over a
// 1,000,000-client lazy population (50 participants, mKrum, scattered
// 0.1% attackers) including engine selection, shard materialization, local
// training and robust aggregation. Its memory bound is asserted by
// TestMillionClientHeapBounded.
func BenchmarkPopulationRound1M(b *testing.B) {
	b.ReportAllocs()
	before := heapAlloc()
	var peak uint64
	for i := 0; i < b.N; i++ {
		millionRun(b, 1)
		if h := heapAlloc(); h > peak {
			peak = h
		}
	}
	if peak > before {
		b.ReportMetric(float64(peak-before), "peak-heap-growth-bytes")
	} else {
		b.ReportMetric(0, "peak-heap-growth-bytes")
	}
}

// BenchmarkPopulationShardDerivation measures raw lazy materialization
// throughput with a cold cache (capacity 1 forces a derivation per call).
func BenchmarkPopulationShardDerivation(b *testing.B) {
	train := tinyTrain(b)
	pop, err := New(Spec{Kind: Label, TotalClients: 1 << 30, Seed: 2, Beta: 0.5, MeanShard: 32, Cache: 1}, train)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop.Shard(i % (1 << 30))
	}
}

// BenchmarkPopulationSampler1M measures K-of-N selection at N = 10⁶
// (Floyd's O(K) algorithm; fl.UniformSampler's Perm would allocate 8 MB
// per call at this N).
func BenchmarkPopulationSampler1M(b *testing.B) {
	s := FloydSampler{K: 50}
	rng := newBenchRNG()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng, 0, 1000000)
	}
}
