// Package defense implements the server-side robust aggregation rules the
// paper evaluates (Section II-C and IV-A): FedAvg (attack-free baseline),
// coordinate-wise Median and Trimmed mean (Yin et al.), Krum and
// Multi-Krum (Blanchard et al.), and Bulyan (El Mhamdi et al.).
//
// Every rule implements fl.Aggregator. Selection-based rules (Krum family,
// Bulyan) report which updates entered the aggregate so the harness can
// compute the paper's defense pass rate (Eq. 5), and the Krum family
// additionally exposes its per-update scores (negated, so higher = more
// benign) and the shared pairwise distance matrix for forensic reuse;
// purely statistical rules return a zero Selection, which the harness
// reports as "N/A".
package defense

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/vec"
)

var errNoUpdates = errors.New("defense: no updates to aggregate")

// updateVectors returns every update's dense weight vector, reconstructing
// frame-only updates against global.
func updateVectors(global []float64, updates []fl.Update) [][]float64 {
	vs := make([][]float64, len(updates))
	for i, u := range updates {
		vs[i] = u.Vector(global)
	}
	return vs
}

// FedAvg is the paper's Eq. 2: the sample-count-weighted average of all
// updates. It applies no filtering and is the aggregation rule used for the
// clean "no attack, no defense" accuracy baseline.
type FedAvg struct{}

var _ fl.Aggregator = FedAvg{}

// Name implements fl.Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements fl.Aggregator. FedAvg applies no filtering, so it
// reports no Selection (Accepted nil, DPR "N/A") — reporting "all accepted"
// would redefine the paper's DPR semantics for the attack-free baseline.
func (FedAvg) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if len(updates) == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	weights := make([]float64, len(updates))
	for i, u := range updates {
		n := u.NumSamples
		if n <= 0 {
			n = 1
		}
		weights[i] = float64(n)
	}
	return vec.WeightedMean(updateVectors(global, updates), weights), fl.Selection{}, nil
}

// Median is the coordinate-wise median aggregation of Yin et al.
type Median struct{}

var _ fl.Aggregator = Median{}

// Name implements fl.Aggregator.
func (Median) Name() string { return "median" }

// Aggregate implements fl.Aggregator.
func (Median) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if len(updates) == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	return vec.Median(updateVectors(global, updates)), fl.Selection{}, nil
}

// TrimmedMean is the coordinate-wise trimmed mean of Yin et al.: the Trim
// largest and smallest values of every coordinate are discarded before
// averaging. Trim is normally the server's assumed number of attackers per
// round; when a round has too few updates the trim is reduced to keep at
// least one value.
type TrimmedMean struct {
	// Trim is the number of values removed from each end per coordinate.
	Trim int
}

var _ fl.Aggregator = TrimmedMean{}

// Name implements fl.Aggregator.
func (TrimmedMean) Name() string { return "trmean" }

// Aggregate implements fl.Aggregator.
func (t TrimmedMean) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if len(updates) == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	trim := t.Trim
	if trim < 0 {
		return nil, fl.Selection{}, fmt.Errorf("defense: negative trim %d", trim)
	}
	for 2*trim >= len(updates) {
		trim--
	}
	return vec.TrimmedMean(updateVectors(global, updates), trim), fl.Selection{}, nil
}

// krumScratch is the storage a Krum-family rule refills on every
// Aggregate: the round's distance matrix (grow-only, K×K at the largest
// round seen), the update frame and vector lists it is built from, the
// score and index buffers, the selection, and
// krumScoresFrom's per-chunk sorted rows. The Selection an Aggregate
// returns aliases it, so it stays valid until the rule's next Aggregate
// (fl.Aggregator's lifetime rule); the aggregate vector itself is fresh.
type krumScratch struct {
	dist     [][]float64
	frames   []*codec.Frame
	vecs     [][]float64
	scores   []float64
	idx      []int
	accepted []int
	rows     [][]float64
}

// roundSqDist returns the round's pairwise squared-distance geometry in the
// scratch matrix: computed in the compressed domain when every update
// carries a compatible codec frame (sparse·dense dots against four
// scattered rows at a time, exact int8 block dots — see internal/codec), so
// a frame-only round builds no dense vector here; otherwise from the dense
// vectors (Update.Vector, which reconstructs dense fp16/raw frames against
// global).
// Both paths are bit-deterministic at any worker count; compressed-domain
// distances are over deltas, which pairwise equal weight distances up to
// FP rounding — the documented codec-on semantics.
// It also returns the matrix's wall time, which the caller reports in
// Selection.DistanceNanos for the engine to record on its federation's
// telemetry.
func (s *krumScratch) roundSqDist(global []float64, updates []fl.Update) ([][]float64, int64) {
	start := telemetry.Nanos()
	s.dist = s.sqDistGeometry(global, updates)
	return s.dist, telemetry.Nanos() - start
}

// sqDistGeometry fills the frame and vector lists from scratch too, and
// clears them again so the scratch keeps no update alive past the round.
func (s *krumScratch) sqDistGeometry(global []float64, updates []fl.Update) [][]float64 {
	s.frames = s.frames[:0]
	for _, u := range updates {
		if u.Frame == nil {
			break
		}
		s.frames = append(s.frames, u.Frame)
	}
	defer clear(s.frames)
	if len(s.frames) == len(updates) {
		if m := codec.SqDistMatrixInto(s.dist, s.frames); m != nil {
			return m
		}
	}
	s.vecs = s.vecs[:0]
	for _, u := range updates {
		s.vecs = append(s.vecs, u.Vector(global))
	}
	defer clear(s.vecs)
	return vec.SqDistMatrixInto(s.dist, s.vecs)
}

// iota returns the scratch index buffer holding 0, 1, …, n−1.
func (s *krumScratch) iota(n int) []int {
	s.idx = s.idx[:0]
	for i := range n {
		s.idx = append(s.idx, i)
	}
	return s.idx
}

// krumScoresFrom scores the subset of updates given by idx against each
// other using a precomputed pairwise squared-distance matrix, so iterative
// selections (Bulyan) re-score without recomputing any distance: for every
// update, the sum of squared distances to its n−f−2 nearest neighbours
// (Blanchard et al.), the neighbour count clamped to [1, n−1] so small
// rounds still produce a usable score. A NaN distance ranks as +Inf, so an
// update with a NaN coordinate scores +Inf and never counts as anyone's
// neighbour (sort.Float64s would put NaN first and poison every score).
// Rows fan out over the kernel pool; each score is the ascending sum of its
// own sorted row, so the chunking cannot change it. The scores live in the
// scratch until the next call.
func (s *krumScratch) krumScoresFrom(dist [][]float64, idx []int, f int) []float64 {
	n := len(idx)
	neighbours := n - f - 2
	if neighbours < 1 {
		neighbours = 1
	}
	if neighbours > n-1 {
		neighbours = n - 1
	}
	s.scores = slices.Grow(s.scores[:0], n)[:n]
	chunks := tensor.ChunkCount(n, 32)
	for len(s.rows) < chunks {
		s.rows = append(s.rows, nil)
	}
	tensor.ParallelChunks(n, 32, chunks, krumRows{s, dist, idx, neighbours}, krumRows.score)
	return s.scores
}

// krumRows is one krumScoresFrom call, handed by value to every chunk.
type krumRows struct {
	s          *krumScratch
	dist       [][]float64
	idx        []int
	neighbours int
}

// score scores rows [lo, hi) into the scratch's scores, sorting each row in
// the chunk's own row buffer.
func (kr krumRows) score(lo, hi, chunk int) {
	n, idx := len(kr.idx), kr.idx
	row := slices.Grow(kr.s.rows[chunk][:0], n-1)
	for i := lo; i < hi; i++ {
		row = row[:0]
		di := kr.dist[idx[i]]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := di[idx[j]]
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			row = append(row, d)
		}
		sort.Float64s(row)
		sum := 0.0
		for k := 0; k < kr.neighbours; k++ {
			sum += row[k]
		}
		kr.s.scores[i] = sum
	}
	kr.s.rows[chunk] = row
}

// MultiKrum implements Krum and its multi-update extension mKrum: updates
// are scored by the summed squared distance to their nearest neighbours and
// the M lowest-scoring updates are averaged. M = 1 is plain Krum; the paper
// uses mKrum with M = n − F, interpolating between Krum and averaging. A
// *MultiKrum keeps its per-round scratch, so one goroutine drives it.
type MultiKrum struct {
	// F is the server's assumed number of Byzantine updates per round.
	F int
	// M is the number of updates selected; 0 means n − F.
	M int

	scratch krumScratch
}

var _ fl.Aggregator = (*MultiKrum)(nil)

// Name implements fl.Aggregator.
func (k *MultiKrum) Name() string {
	if k.M == 1 {
		return "krum"
	}
	return "mkrum"
}

// Aggregate implements fl.Aggregator. The Selection lives in k's scratch
// until k's next Aggregate.
func (k *MultiKrum) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	n := len(updates)
	if n == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	m := k.M
	if m <= 0 {
		m = n - k.F
	}
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	sc := &k.scratch
	dist, distNanos := sc.roundSqDist(global, updates)
	order := sc.iota(n)
	scores := sc.krumScoresFrom(dist, order, k.F)
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	sc.accepted = append(sc.accepted[:0], order[:m]...)
	// Selection.Scores is "higher = more benign", the opposite of the raw
	// summed-distance score.
	for i, s := range scores {
		scores[i] = -s
	}
	sel := fl.Selection{
		Accepted:      sc.accepted,
		Scores:        scores,
		ScoreName:     "neg-krum-distance",
		Distances:     dist,
		DistanceNanos: distNanos,
	}
	return selectedMean(global, updates, sc.accepted), sel, nil
}

// selectedMean is vec.Mean over the selected updates' dense vectors, bit for
// bit: the same adds in selection order, then one 1/m scale. A frame-only
// update is reconstructed into one scratch vector reused across the
// selection, so the mean of m compressed updates costs one dense vector, not
// m; a round of dense updates allocates no scratch.
func selectedMean(global []float64, updates []fl.Update, selected []int) []float64 {
	var out, scratch []float64
	for _, idx := range selected {
		v := updates[idx].Weights
		if f := updates[idx].Frame; v == nil && f != nil {
			if scratch == nil {
				scratch = make([]float64, f.Dim)
			}
			f.ReconstructInto(scratch, global)
			v = scratch
		}
		if out == nil {
			out = make([]float64, len(v))
		}
		tensor.AddSlice(out, v)
	}
	inv := 1.0 / float64(len(selected))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// spread is update idx[i]'s summed squared distance to every update in idx,
// a NaN distance counting as +Inf as in krumScoresFrom.
func spread(dist [][]float64, idx []int, i int) float64 {
	sum := 0.0
	for _, j := range idx {
		d := dist[idx[i]][j]
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		sum += d
	}
	return sum
}

// Bulyan implements the two-stage defense of El Mhamdi et al.: first an
// iterative Multi-Krum selection of θ = n − 2F updates, then for every
// coordinate the average of the β = θ − 2F values closest to the
// coordinate median. Both counts are clamped for small rounds. A *Bulyan
// keeps its per-round scratch, so one goroutine drives it.
type Bulyan struct {
	// F is the server's assumed number of Byzantine updates per round.
	F int

	scratch krumScratch
}

var _ fl.Aggregator = (*Bulyan)(nil)

// Name implements fl.Aggregator.
func (*Bulyan) Name() string { return "bulyan" }

// Aggregate implements fl.Aggregator. The Selection lives in b's scratch
// until b's next Aggregate.
func (b *Bulyan) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	n := len(updates)
	if n == 0 {
		return nil, fl.Selection{}, errNoUpdates
	}
	theta := n - 2*b.F
	if theta < 1 {
		theta = 1
	}

	// Stage 1: iterative Krum selection of theta updates. The O(n²·d)
	// pairwise distances are computed once (compressed-domain when the
	// round's frames allow); each iteration re-scores the shrinking
	// remainder from the shared matrix. Once the remainder is small the
	// score has one neighbour, and two mutual nearest neighbours tie
	// exactly: a tie goes to the update nearer to the whole remainder, and
	// a tie there (a Sybil's identical copies) to the lower client ID, not
	// to the earlier slot, so the selection does not depend on the order
	// the updates arrived in.
	sc := &b.scratch
	dist, distNanos := sc.roundSqDist(global, updates)
	remaining := sc.iota(n)
	selected := sc.accepted[:0]
	for len(selected) < theta {
		scores := sc.krumScoresFrom(dist, remaining, b.F)
		best := 0
		for i, s := range scores {
			switch {
			case s < scores[best]:
				best = i
			case s == scores[best]:
				si, sb := spread(dist, remaining, i), spread(dist, remaining, best)
				if si < sb || si == sb && updates[remaining[i]].ClientID < updates[remaining[best]].ClientID {
					best = i
				}
			}
		}
		selected = append(selected, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	sc.accepted = selected

	// Stage 2: coordinate-wise trimmed average around the median of the
	// selected updates, whose dense vectors are the only ones built. The
	// column buffers are reused across coordinates.
	beta := theta - 2*b.F
	if beta < 1 {
		beta = 1
	}
	chosen := make([][]float64, theta)
	for i, idx := range selected {
		chosen[i] = updates[idx].Vector(global)
	}
	dim := len(chosen[0])
	out := make([]float64, dim)
	type kv struct{ dev, val float64 }
	col := make([]kv, theta)
	vals := make([]float64, theta)
	med := make([]float64, theta)
	for d := 0; d < dim; d++ {
		for i, v := range chosen {
			vals[i] = v[d]
		}
		m := medianOf(vals, med)
		for i, v := range vals {
			dev := v - m
			if dev < 0 {
				dev = -dev
			}
			col[i] = kv{dev, v}
		}
		// Insertion sort: the column is tiny (θ ≤ the round size) and
		// sort.Slice here costs allocations and indirect calls per
		// coordinate across the full model dimension.
		for i := 1; i < theta; i++ {
			e := col[i]
			j := i - 1
			for ; j >= 0 && col[j].dev > e.dev; j-- {
				col[j+1] = col[j]
			}
			col[j+1] = e
		}
		s := 0.0
		for i := 0; i < beta; i++ {
			s += col[i].val
		}
		out[d] = s / float64(beta)
	}
	// No Scores: the iterative stage-1 selection re-scores a shrinking set,
	// so no single per-update score vector describes the decision. The
	// shared distance matrix is still exported for forensic reuse.
	return out, fl.Selection{Accepted: selected, Distances: dist, DistanceNanos: distNanos}, nil
}

// medianOf returns the median of vals using tmp (same length) as sort
// scratch; vals itself is left untouched.
func medianOf(vals, tmp []float64) float64 {
	copy(tmp, vals)
	vec.SortSmall(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2])
}

// ByName resolves a defense by its canonical name; f is the server's assumed
// per-round attacker count used by the robust rules.
func ByName(name string, f int) (fl.Aggregator, error) {
	switch name {
	case "fedavg", "none":
		return FedAvg{}, nil
	case "median":
		return Median{}, nil
	case "trmean", "trimmedmean":
		return TrimmedMean{Trim: f}, nil
	case "krum":
		return &MultiKrum{F: f, M: 1}, nil
	case "mkrum":
		return &MultiKrum{F: f}, nil
	case "bulyan":
		return &Bulyan{F: f}, nil
	case "foolsgold":
		return NewFoolsGold(1), nil
	default:
		return nil, fmt.Errorf("defense: unknown defense %q", name)
	}
}
