package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// PartitionIID splits sample indices uniformly at random into numClients
// equally sized shards (up to remainder).
func PartitionIID(rng *rand.Rand, n, numClients int) [][]int {
	if numClients <= 0 {
		panic(fmt.Sprintf("dataset: numClients %d must be positive", numClients))
	}
	perm := rng.Perm(n)
	shards := make([][]int, numClients)
	for i, idx := range perm {
		c := i % numClients
		shards[c] = append(shards[c], idx)
	}
	return shards
}

// PartitionDirichlet assigns sample indices to clients following the
// label-skew protocol used in the paper (and in Hsu et al.): for every class
// a proportion vector over clients is drawn from Dirichlet(beta) and the
// class's samples are split accordingly. Lower beta means higher
// heterogeneity. Clients that end up empty receive one sample stolen from
// the largest client so the training loop never sees an empty shard.
func PartitionDirichlet(rng *rand.Rand, labels []int, numClients int, beta float64) [][]int {
	if numClients <= 0 {
		panic(fmt.Sprintf("dataset: numClients %d must be positive", numClients))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("dataset: Dirichlet beta %v must be positive", beta))
	}
	classes := 0
	for _, l := range labels {
		if l+1 > classes {
			classes = l + 1
		}
	}
	byClass := make([][]int, classes)
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	shards := make([][]int, numClients)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		props := SampleDirichlet(rng, numClients, beta)
		// Convert proportions to cumulative counts over this class.
		start := 0
		cum := 0.0
		for c := 0; c < numClients; c++ {
			cum += props[c]
			end := int(math.Round(cum * float64(len(idxs))))
			if c == numClients-1 {
				end = len(idxs)
			}
			if end > len(idxs) {
				end = len(idxs)
			}
			if end > start {
				shards[c] = append(shards[c], idxs[start:end]...)
			}
			start = end
		}
	}
	rebalanceEmpty(rng, shards)
	return shards
}

// PartitionQuantity assigns sample indices to clients following the
// quantity-skew protocol: one proportion vector over clients is drawn from
// Dirichlet(beta) and a random permutation of all samples is sliced
// accordingly, so clients differ in how much data they hold rather than in
// which labels they hold (the complement of PartitionDirichlet's label
// skew). Lower beta means more extreme size imbalance. Clients that end up
// empty receive one sample stolen from the largest client so the training
// loop never sees an empty shard.
func PartitionQuantity(rng *rand.Rand, n, numClients int, beta float64) [][]int {
	if numClients <= 0 {
		panic(fmt.Sprintf("dataset: numClients %d must be positive", numClients))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("dataset: Dirichlet beta %v must be positive", beta))
	}
	perm := rng.Perm(n)
	props := SampleDirichlet(rng, numClients, beta)
	shards := make([][]int, numClients)
	start := 0
	cum := 0.0
	for c := 0; c < numClients; c++ {
		cum += props[c]
		end := int(math.Round(cum * float64(n)))
		if c == numClients-1 {
			end = n
		}
		if end > n {
			end = n
		}
		if end > start {
			shards[c] = append(shards[c], perm[start:end]...)
		}
		start = end
	}
	rebalanceEmpty(rng, shards)
	return shards
}

// rebalanceEmpty moves one sample from the largest shard into every empty
// shard.
func rebalanceEmpty(rng *rand.Rand, shards [][]int) {
	for c := range shards {
		if len(shards[c]) > 0 {
			continue
		}
		largest := 0
		for i := range shards {
			if len(shards[i]) > len(shards[largest]) {
				largest = i
			}
		}
		if len(shards[largest]) <= 1 {
			continue // nothing to steal
		}
		k := rng.Intn(len(shards[largest]))
		shards[c] = append(shards[c], shards[largest][k])
		shards[largest] = append(shards[largest][:k], shards[largest][k+1:]...)
	}
}

// SampleDirichlet draws one sample from a symmetric Dirichlet distribution
// with concentration alpha over dim components.
func SampleDirichlet(rng *rand.Rand, dim int, alpha float64) []float64 {
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		out[i] = sampleGamma(rng, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for very small alpha): put all mass on
		// one random component, which is the correct limiting behaviour.
		out[rng.Intn(dim)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SampleGamma draws from Gamma(alpha, 1); it is the building block of
// SampleDirichlet and of the population package's per-client quantity-skew
// streams.
func SampleGamma(rng *rand.Rand, alpha float64) float64 {
	return sampleGamma(rng, alpha)
}

// sampleGamma draws from Gamma(alpha, 1) using Marsaglia–Tsang, with the
// standard power-of-uniform boost for alpha < 1.
func sampleGamma(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
