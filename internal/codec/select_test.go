package codec

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refTopKIndices is the selection the radix select replaced, kept as the
// reference: quickselect the k-th largest magnitude, collect everything
// above it, then the lowest-index coordinates equal to it until k are
// chosen, and sort.
func refTopKIndices(delta []float64, frac float64) []int32 {
	d := len(delta)
	k := keepCount(frac, d)
	abs := make([]float64, d)
	for i, v := range delta {
		abs[i] = math.Abs(v)
	}
	t := kthLargest(abs, k, make([]float64, d))
	idx := make([]int32, 0, k)
	for i, a := range abs {
		if a > t {
			idx = append(idx, int32(i))
		}
	}
	for i, need := 0, k-len(idx); need > 0; i++ {
		if abs[i] == t {
			idx = append(idx, int32(i))
			need--
		}
	}
	slices.Sort(idx)
	return idx
}

// kthLargest returns the k-th largest value of vals (1 ≤ k ≤ len(vals))
// without reordering the input: Hoare-partition quickselect with
// median-of-three pivots on the scratch copy v (len(vals)). NaN-free input
// only — its comparisons are not a total order otherwise.
func kthLargest(vals []float64, k int, v []float64) float64 {
	copy(v, vals)
	target := len(v) - k // ascending rank
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return v[target]
		}
	}
	return v[target]
}

// TestTopKIndicesMatchesQuickselect is the differential test of the radix
// select: over seeded draws from the magnitude distributions that stress it
// — no ties, almost only ties, every exponent bucket, one bucket down to the
// last digit — and k from 1 to n, the kept set equals the reference's,
// lower-index tie-breaks included.
func TestTopKIndicesMatchesQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	signed := func(v float64) float64 {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	dists := []struct {
		name string
		draw func() float64
	}{
		{"gaussian", rng.NormFloat64},
		{"five-value", func() float64 { return signed([]float64{0, 0.25, 0.5, 0.5, 3}[rng.Intn(5)]) }},
		{"40 decades", func() float64 { return signed(math.Pow(10, 40*rng.Float64()-20)) }},
		// Bit patterns within ±40 of 1.0's: equal down to the last digit.
		{"adjacent bits", func() float64 {
			return signed(math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(81)) - 40))
		}},
	}
	// idx is handed back every trial, so selections of every size reuse one
	// index buffer as they reuse the pooled candidate scratch.
	var idx []int32
	const perDist = 800 // × 4 distributions = 3 200 draws
	for _, dist := range dists {
		for trial := 0; trial < perDist; trial++ {
			n := 1 + rng.Intn(400)
			if trial%50 == 0 {
				n = 2000 + rng.Intn(3000)
			}
			delta := make([]float64, n)
			for i := range delta {
				delta[i] = dist.draw()
			}
			var k int
			switch trial % 4 {
			case 0:
				k = 1
			case 1:
				k = n
			default:
				k = 1 + rng.Intn(n)
			}
			// A fraction just under k/n selects exactly k: ⌈frac·n⌉ = k.
			frac := (float64(k) - 0.5) / float64(n)
			if got := keepCount(frac, n); got != k {
				t.Fatalf("keepCount(%v, %d) = %d, want %d", frac, n, got, k)
			}
			idx = topKIndices(idx, delta, frac)
			if want := refTopKIndices(delta, frac); !slices.Equal(idx, want) {
				t.Fatalf("%s trial %d (n=%d k=%d): radix select keeps %v, quickselect reference %v", dist.name, trial, n, k, idx, want)
			}
		}
	}
}

// refEncodeTopK builds a first-round top-k frame (raw or int8) the way
// Encode does, but around the reference selection.
func refEncodeTopK(spec Spec, clientID, round int, global, weights []float64) *Frame {
	delta := make([]float64, len(global))
	for i := range delta {
		delta[i] = weights[i] - global[i]
	}
	f := &Frame{Spec: spec, Dim: len(global), Idx: refTopKIndices(delta, spec.TopK)}
	vals := make([]float64, len(f.Idx))
	for t, id := range f.Idx {
		vals[t] = delta[id]
	}
	if spec.Quant == Raw {
		f.Val = vals
		return f
	}
	f.Q, f.Scales = make([]int8, len(vals)), make([]float64, (len(vals)+Block-1)/Block)
	rs := newRoundStream(clientID, round)
	quantizeInt8(vals, f.Q, f.Scales, &rs)
	f.Val = make([]float64, len(vals))
	for i := range f.Val {
		f.Val[i] = f.Scales[i/Block] * float64(f.Q[i])
	}
	return f
}

// TestEncodeWireEqualsReferenceSelection: frames are byte-identical to ones
// built around the quickselect, on encodeRound's Gaussian fixture and on
// the tie-heavy benchWeights one (31 distinct delta values, so the threshold
// is always a tie broken by index).
func TestEncodeWireEqualsReferenceSelection(t *testing.T) {
	const n, dim = 6, 2*Block + 77
	gaussG, gaussW := roundWeights(n, dim)
	tiedG, tiedW := benchWeights(n, dim)
	for _, spec := range []Spec{
		{Quant: Int8, TopK: 0.1, EF: true},
		{Quant: Raw, TopK: 0.2},
	} {
		for _, fx := range []struct {
			name   string
			global []float64
			ws     [][]float64
		}{{"gaussian", gaussG, gaussW}, {"tied", tiedG, tiedW}} {
			enc := NewEncoder(spec)
			for c, w := range fx.ws {
				got := EncodeWire(enc.Encode(c, 1, fx.global, w))
				want := EncodeWire(refEncodeTopK(spec, c, 1, fx.global, w))
				if !bytes.Equal(got, want) {
					t.Fatalf("spec %q %s client %d: wire bytes differ from the reference-selection frame", spec, fx.name, c)
				}
			}
		}
	}
}
