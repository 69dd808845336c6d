package population

import (
	"errors"
	"math/rand"
	"sort"

	"repro/internal/fl"
)

// FloydSampler selects K of N clients uniformly without replacement in
// O(K) time and memory via Floyd's algorithm. fl.UniformSampler's
// rng.Perm(N) allocates O(N) per round — 8 MB per round at N = 10⁶ — so
// experiment.Run sets this sampler on virtual-population runs that
// configure none; the engine's own default stays the uniform one.
type FloydSampler struct {
	// K is the number of clients selected per round.
	K int
}

var _ fl.ClientSampler = FloydSampler{}

// Validate reports configuration errors.
func (s FloydSampler) Validate() error {
	if s.K <= 0 {
		return errors.New("population: floyd sampler K must be positive")
	}
	return nil
}

// Sample implements fl.ClientSampler. The result is sorted so downstream
// iteration order is deterministic and cache-friendly.
func (s FloydSampler) Sample(rng *rand.Rand, _, total int) []int {
	k := s.K
	if k > total {
		k = total
	}
	chosen := make(map[int]struct{}, k)
	ids := make([]int, 0, k)
	for j := total - k; j < total; j++ {
		t := rng.Intn(j + 1)
		if _, taken := chosen[t]; taken {
			t = j
		}
		chosen[t] = struct{}{}
		ids = append(ids, t)
	}
	sort.Ints(ids)
	return ids
}
