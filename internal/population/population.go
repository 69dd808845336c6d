// Package population represents an N-client cross-device federation in
// O(active clients) memory instead of O(N). Production federated learning
// (Shejwalkar et al., "Back to the Drawing Board") means millions of
// enrolled devices of which a few dozen participate per round; materializing
// every client's data shard up front — the eager [][]int path of
// dataset.Partition* — costs O(N) memory and setup time and caps the
// population sizes the repository can express.
//
// A Population instead *derives* any client's shard on demand from
// (seed, partition spec, client ID): every client owns an independent
// seeded random stream, so materializing client i is a pure function —
// bit-identical no matter when it happens, in which order clients are
// touched, or how small the materialization cache is (see
// TestLazyMatchesEager). An LRU-bounded cache keeps the shards of recently
// active clients so a round over 1,000,000 virtual clients allocates only
// for its PerRound participants.
//
// A Population is one of the two fl.ClientSource implementations the single
// round driver, fl.Simulation, trains over (the other is the eager
// fl.Shards table). Beside it sit the attacker placement models
// (placement.go) — "first K clients are malicious" and the
// production-relevant alternatives, for either source — the O(K) client
// sampler (sampler.go) and the hierarchical two-tier aggregation topology
// (hierarchy.go).
package population

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/fl"
)

// Kind selects the lazy partition protocol.
type Kind string

const (
	// IID draws every client's shard uniformly from the global sample pool.
	IID Kind = "iid"
	// Label gives every client a Dirichlet(Beta) class-preference vector and
	// draws its shard class-first — the per-client dual of the paper's
	// per-class Dirichlet label skew (Hsu et al.), chosen because it is
	// derivable from the client ID alone.
	Label Kind = "label"
	// Quantity skews shard *sizes* by a per-client Gamma(Beta) draw while
	// sampling content uniformly — the lazy analogue of
	// dataset.PartitionQuantity.
	Quantity Kind = "quantity"
)

// Spec describes a virtual population. The triple (Seed, Spec, client ID)
// fully determines every client's shard.
type Spec struct {
	// Kind selects the partition protocol.
	Kind Kind
	// TotalClients is N, the population size.
	TotalClients int
	// Seed derives every per-client stream.
	Seed int64
	// Beta is the Dirichlet/Gamma concentration of the Label and Quantity
	// kinds; lower means more skew. Ignored by IID.
	Beta float64
	// MeanShard is the expected per-client shard size in samples. Virtual
	// clients draw from the global pool with replacement across clients (a
	// million devices cannot hold disjoint slices of a 6000-sample pool), so
	// MeanShard is a free parameter rather than n/N.
	MeanShard int
	// Cache bounds the LRU materialization cache in shards (0 = 256).
	Cache int
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	switch s.Kind {
	case IID:
	case Label, Quantity:
		if s.Beta <= 0 {
			return fmt.Errorf("population: kind %q requires Beta > 0", s.Kind)
		}
	default:
		return fmt.Errorf("population: unknown kind %q (known: iid, label, quantity)", s.Kind)
	}
	if s.TotalClients <= 0 {
		return errors.New("population: TotalClients must be positive")
	}
	if s.MeanShard <= 0 {
		return errors.New("population: MeanShard must be positive")
	}
	if s.Cache < 0 {
		return errors.New("population: Cache must be non-negative")
	}
	return nil
}

// Population lazily materializes per-client shards over one training
// dataset. Safe for concurrent use; Shard results are shared read-only
// slices that callers must not mutate.
type Population struct {
	spec    Spec
	n       int
	classes int
	// byClass pools sample indices per label for the Label kind; only
	// classes that actually occur are drawn from.
	byClass  [][]int
	nonEmpty []int

	mu    sync.Mutex
	cache map[int]*list.Element
	lru   *list.List
	cap   int
	// derivations counts cache misses (test and diagnostics hook).
	derivations int64

	// rngs is the free list of derivation streams, re-seeded per use: a
	// math/rand source is 4.9 kB, far more than the shard it derives.
	rngMu sync.Mutex
	rngs  []*rand.Rand
}

var _ fl.ClientSource = (*Population)(nil)

// cacheEntry is one LRU slot.
type cacheEntry struct {
	id    int
	shard []int
}

// New builds a population over the training dataset. Memory is
// O(samples + cache), never O(TotalClients).
func New(spec Spec, train *dataset.Dataset) (*Population, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, errors.New("population: empty training dataset")
	}
	p := &Population{
		spec:    spec,
		n:       train.Len(),
		classes: train.Classes,
		cache:   make(map[int]*list.Element),
		lru:     list.New(),
		cap:     spec.Cache,
	}
	if p.cap == 0 {
		p.cap = 256
	}
	if spec.Kind == Label {
		p.byClass = make([][]int, train.Classes)
		for i, l := range train.Labels {
			p.byClass[l] = append(p.byClass[l], i)
		}
		for c, pool := range p.byClass {
			if len(pool) > 0 {
				p.nonEmpty = append(p.nonEmpty, c)
			}
		}
		if len(p.nonEmpty) == 0 {
			return nil, errors.New("population: dataset has no labelled samples")
		}
	}
	return p, nil
}

// Len returns N, the population size.
func (p *Population) Len() int { return p.spec.TotalClients }

// MeanShardSize returns the expected per-client shard size.
func (p *Population) MeanShardSize() int { return p.spec.MeanShard }

// clientRNG returns client id's private derivation stream, taken from the
// free list and seeded in place — the stream
// rand.New(rand.NewSource(seed)) yields. Streams are decorrelated by a
// SplitMix64 finalizer over (seed, id, stream), so neighbouring IDs share
// no structure. The caller hands it back with putRNG.
func (p *Population) clientRNG(id int, stream uint64) *rand.Rand {
	seed := fl.Mix64(uint64(p.spec.Seed), uint64(id)<<8|stream)
	p.rngMu.Lock()
	var rng *rand.Rand
	if n := len(p.rngs); n > 0 {
		rng, p.rngs = p.rngs[n-1], p.rngs[:n-1]
	}
	p.rngMu.Unlock()
	if rng == nil {
		return rand.New(rand.NewSource(seed))
	}
	rng.Seed(seed)
	return rng
}

// putRNG returns a stream clientRNG handed out to the free list.
func (p *Population) putRNG(rng *rand.Rand) {
	p.rngMu.Lock()
	p.rngs = append(p.rngs, rng)
	p.rngMu.Unlock()
}

// streamShard tags the per-client derivation stream. Shard derivation and
// shard-size derivation share it (size is the first draw); training
// randomness (fl.Simulation) uses the disjoint tag 0x7, so adding rounds
// never perturbs shards.
const streamShard = 0x5

// ShardSize returns client id's shard size without materializing the shard:
// O(1) for IID/Label (the size is the spec constant) and one Gamma draw for
// Quantity. The value always equals len(Shard(id)).
func (p *Population) ShardSize(id int) int {
	if p.spec.Kind != Quantity {
		return p.spec.MeanShard
	}
	rng := p.clientRNG(id, streamShard)
	defer p.putRNG(rng)
	return p.quantitySize(rng)
}

// quantitySize draws the Quantity kind's skewed shard size: a Gamma(Beta)
// variate scaled to mean MeanShard, floored at 1 so no client is empty.
func (p *Population) quantitySize(rng *rand.Rand) int {
	g := dataset.SampleGamma(rng, p.spec.Beta)
	size := int(math.Round(g / p.spec.Beta * float64(p.spec.MeanShard)))
	if size < 1 {
		size = 1
	}
	return size
}

// derive materializes client id's shard from its seeded stream. Pure:
// depends only on (spec, dataset shape, id).
func (p *Population) derive(id int) []int {
	rng := p.clientRNG(id, streamShard)
	defer p.putRNG(rng)
	switch p.spec.Kind {
	case Quantity:
		size := p.quantitySize(rng)
		shard := make([]int, size)
		for i := range shard {
			shard[i] = rng.Intn(p.n)
		}
		return shard
	case Label:
		props := dataset.SampleDirichlet(rng, len(p.nonEmpty), p.spec.Beta)
		shard := make([]int, p.spec.MeanShard)
		for i := range shard {
			c := p.nonEmpty[drawCategorical(rng, props)]
			pool := p.byClass[c]
			shard[i] = pool[rng.Intn(len(pool))]
		}
		return shard
	default: // IID
		shard := make([]int, p.spec.MeanShard)
		for i := range shard {
			shard[i] = rng.Intn(p.n)
		}
		return shard
	}
}

// drawCategorical samples an index proportionally to props (which sum to 1).
func drawCategorical(rng *rand.Rand, props []float64) int {
	u := rng.Float64()
	cum := 0.0
	for i, p := range props {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(props) - 1
}

// Shard returns client id's sample indices, deriving them on first touch
// and serving repeats from the LRU cache. The returned slice is shared:
// callers must treat it as read-only.
func (p *Population) Shard(id int) []int {
	if id < 0 || id >= p.spec.TotalClients {
		panic(fmt.Sprintf("population: client %d outside [0, %d)", id, p.spec.TotalClients))
	}
	p.mu.Lock()
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		shard := el.Value.(*cacheEntry).shard
		p.mu.Unlock()
		return shard
	}
	p.mu.Unlock()

	// Derive outside the lock: derivation is pure, so two goroutines racing
	// on the same ID produce identical slices and either may win the cache.
	shard := p.derive(id)

	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).shard
	}
	p.derivations++
	p.cache[id] = p.lru.PushFront(&cacheEntry{id: id, shard: shard})
	for p.lru.Len() > p.cap {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		delete(p.cache, oldest.Value.(*cacheEntry).id)
	}
	return shard
}

// Derivations returns the number of cache misses so far (each one shard
// derivation). With a cache at least as large as the working set, repeated
// rounds over the same clients add none.
func (p *Population) Derivations() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.derivations
}

// cacheLen returns the number of currently materialized shards (≤ the LRU
// capacity, the subsystem's memory-bound invariant).
func (p *Population) cacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// materializeAll eagerly derives every client's shard — the O(N) reference
// the lazy path is tested against: fl.Shards(p.materializeAll()) is the
// eager source holding the same shards (see TestLazyEqualsEagerDriver).
func (p *Population) materializeAll() [][]int {
	shards := make([][]int, p.spec.TotalClients)
	for i := range shards {
		shards[i] = p.derive(i)
	}
	return shards
}
