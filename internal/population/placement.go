package population

import (
	"fmt"
	"sync"

	"repro/internal/fl"
)

// Placement decides which client IDs the adversary controls: the "first K
// clients are malicious" default and production-relevant alternatives. It
// answers membership queries in O(1) with no O(N) flag storage — the engine
// asks per responder, never for the whole population. Every Placement is an
// fl.Placement, the two methods fl.Simulation reads.
type Placement interface {
	// Name returns the placement's display name.
	Name() string
	// IsMalicious reports whether client id is adversary-controlled.
	IsMalicious(id int) bool
	// Total returns the total number of adversary-controlled clients.
	Total() int
}

// FirstK is the default placement: clients 0..K−1 are malicious. Under
// uniform selection which IDs carry the flag is immaterial, which is why
// the paper's simulator could afford it; the other placements exist because
// samplers and topologies that *do* look at IDs (weighted sampling,
// grouping, burst joins) break that symmetry.
type FirstK struct {
	// K is the number of malicious clients.
	K int
}

// Name implements Placement.
func (p FirstK) Name() string { return fmt.Sprintf("first-%d", p.K) }

// IsMalicious implements Placement.
func (p FirstK) IsMalicious(id int) bool { return id < p.K }

// Total implements Placement.
func (p FirstK) Total() int { return p.K }

// Scattered places attackers by a seeded hash coin per client: client id is
// malicious iff hash(Seed, id) < Frac. This is the production-scale model —
// compromised devices are spread arbitrarily through the ID space — and it
// expresses tiny fractions (0.1%, 0.01%) exactly as well as the paper's
// 20%. The exact count is a property of the draw; Total scans the ID space
// once (O(N) time, O(1) memory) and memoizes.
type Scattered struct {
	// N is the population size.
	N int
	// Frac is the per-client compromise probability.
	Frac float64
	// Seed derives the per-client coins.
	Seed int64

	once  sync.Once
	total int
}

// Name implements Placement.
func (p *Scattered) Name() string { return fmt.Sprintf("scatter-%g", p.Frac) }

// IsMalicious implements Placement.
func (p *Scattered) IsMalicious(id int) bool {
	return hashFloat(p.Seed, uint64(id)) < p.Frac
}

// Total implements Placement.
func (p *Scattered) Total() int {
	p.once.Do(func() {
		for id := 0; id < p.N; id++ {
			if p.IsMalicious(id) {
				p.total++
			}
		}
	})
	return p.total
}

// SybilBurst models a Sybil campaign: K fabricated devices enrolled
// together, occupying one contiguous block of the ID space at a seeded
// offset. Under ID-structured topologies (hierarchical groups, weighted
// samplers) a burst concentrates where scattered compromise dilutes.
type SybilBurst struct {
	// Start is the first malicious ID; the block is [Start, Start+K).
	Start int
	// K is the burst size.
	K int
}

// NewSybilBurst places a K-client burst at a seed-derived offset in a
// population of n clients.
func NewSybilBurst(n, k int, seed int64) SybilBurst {
	if k > n {
		k = n
	}
	span := n - k + 1
	start := 0
	if span > 0 {
		start = int(uint64(fl.Mix64(uint64(seed), 0x53)) % uint64(span))
	}
	return SybilBurst{Start: start, K: k}
}

// Name implements Placement.
func (p SybilBurst) Name() string { return fmt.Sprintf("sybil-%d@%d", p.K, p.Start) }

// IsMalicious implements Placement.
func (p SybilBurst) IsMalicious(id int) bool { return id >= p.Start && id < p.Start+p.K }

// Total implements Placement.
func (p SybilBurst) Total() int { return p.K }

// SizeCorrelated compromises data-rich clients preferentially: client id is
// malicious with probability Frac·size(id)/MeanShard (clamped to 1), so the
// expected attacker fraction stays Frac while the attackers' collective
// weight under sample-count-weighted aggregation exceeds it — the strongest
// placement against weighted FedAvg.
type SizeCorrelated struct {
	// Pop supplies per-client shard sizes.
	Pop *Population
	// Frac is the mean per-client compromise probability.
	Frac float64
	// Seed derives the per-client coins.
	Seed int64

	once  sync.Once
	total int
}

// Name implements Placement.
func (p *SizeCorrelated) Name() string { return fmt.Sprintf("sizecorr-%g", p.Frac) }

// IsMalicious implements Placement.
func (p *SizeCorrelated) IsMalicious(id int) bool {
	prob := p.Frac * float64(p.Pop.ShardSize(id)) / float64(p.Pop.MeanShardSize())
	return hashFloat(p.Seed, uint64(id)) < prob
}

// Total implements Placement.
func (p *SizeCorrelated) Total() int {
	p.once.Do(func() {
		for id := 0; id < p.Pop.Len(); id++ {
			if p.IsMalicious(id) {
				p.total++
			}
		}
	})
	return p.total
}

// hashFloat maps (seed, id) to a uniform float64 in [0, 1).
func hashFloat(seed int64, id uint64) float64 {
	return float64(uint64(fl.Mix64(uint64(seed), id))>>10) / float64(1<<53)
}

// PlacementByName resolves the placement models the experiment config
// exposes, for either client source. frac is the attacker fraction; pop is
// required by "sizecorr" only and is nil on the eager backend.
func PlacementByName(name string, n int, frac float64, seed int64, pop *Population) (Placement, error) {
	k := int(frac * float64(n))
	switch name {
	case "", "first":
		return FirstK{K: k}, nil
	case "scatter":
		return &Scattered{N: n, Frac: frac, Seed: seed}, nil
	case "sybil":
		return NewSybilBurst(n, k, seed), nil
	case "sizecorr":
		if pop == nil {
			return nil, fmt.Errorf("population: sizecorr placement requires a virtual population")
		}
		return &SizeCorrelated{Pop: pop, Frac: frac, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("population: unknown placement %q (known: first, scatter, sybil, sizecorr)", name)
	}
}
