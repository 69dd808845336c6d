// Package forensics audits every defense decision the round engine makes
// and turns the stream into detection-quality analytics. The paper (and
// most of the poisoning literature) evaluates attacks and defenses only
// through endpoint metrics — DPR/ASR and accuracy — but production-regime
// conclusions hinge on *detection quality*: how often a defense filters
// actual attackers versus benign clients, especially at sub-1% attacker
// fractions where a single false positive per round dwarfs the attacker
// population (Shejwalkar et al., "Back to the Drawing Board").
//
// The subsystem has three layers:
//
//   - per-update fingerprints: cheap geometric summaries (update norm,
//     cosine to the round mean, nearest/median neighbour distance) that
//     make per-round update behaviour legible, reusing the pairwise
//     distance matrix a distance-based defense already computed
//     (fl.Selection.Distances) so fingerprinting is nearly free;
//   - a streaming detection-metrics engine joining each defense decision
//     (fl.Selection) against the ground-truth Malicious flags to maintain
//     per-round and cumulative TPR/FPR/precision/F1, plus online ROC/AUC
//     over the score vectors of score-producing defenses (REFD, FoolsGold,
//     the Krum family) in O(K log K) per round with bounded memory;
//   - sinks: an in-memory ring of recent round audits, a JSONL audit
//     journal (internal/persist), and an HTTP endpoint serving the live
//     metrics as JSON.
//
// Everything here is pure observation: attaching a Collector to an engine
// never changes aggregation results, metric accounting, or RNG streams.
package forensics

import (
	"math"
	"sort"

	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Fingerprint is the cheap geometric summary of one update in one round.
// All four signals are functions of the round's update set and the global
// model the updates were trained from; none require ground truth, so they
// are computable in a real deployment. Each is a persist.Float: an update
// with a non-finite coordinate makes it NaN, which a record writes as null.
type Fingerprint struct {
	// L2 is ‖w_i − w(t)‖₂, the update's displacement from the global model.
	// Boosted or scaled updates (LIE, Min-Max at large γ) stand out here.
	L2 persist.Float `json:"l2"`
	// CosMean is the cosine similarity between the update's displacement
	// and the round's mean displacement. Direction-flipping attacks
	// (sign-flip, DFA-R at high λ) sit near −1, colluding copies near +1.
	CosMean persist.Float `json:"cosMean"`
	// MinNeighbor is the Euclidean distance to the nearest other update.
	// Near-zero values expose Sybil near-duplicates.
	MinNeighbor persist.Float `json:"minNeighbor"`
	// MedNeighbor is the square root of the median squared distance to the
	// other updates — the robust "how far from the crowd" signal Krum-style
	// defenses threshold on.
	MedNeighbor persist.Float `json:"medNeighbor"`
}

// Fingerprints computes the fingerprint of every update. dist, when it is
// the round's n×n pairwise squared-distance matrix (a distance-based
// defense exported it via Selection.Distances), is reused; otherwise the
// matrix is computed once here via the shared distance-matrix service.
// Per-update results are pure functions of the inputs, so the parallel
// fan-out never changes a bit.
func Fingerprints(global []float64, updates []fl.Update, dist [][]float64) []Fingerprint {
	n := len(updates)
	fps := make([]Fingerprint, n)
	if n == 0 {
		return fps
	}
	// Dense vectors (frame-only updates reconstructed against global) and
	// the mean displacement of the round, computed once.
	vs := make([][]float64, n)
	meanDelta := make([]float64, len(global))
	for i, u := range updates {
		vs[i] = u.Vector(global)
		for j, w := range vs[i] {
			meanDelta[j] += w
		}
	}
	inv := 1 / float64(n)
	for j, g := range global {
		meanDelta[j] = meanDelta[j]*inv - g
	}
	mdNorm := math.Sqrt(tensor.DotSlice(meanDelta, meanDelta))

	if len(dist) != n {
		dist = vec.SqDistMatrix(vs)
	}

	tensor.ParallelFor(n, 1, func(lo, hi int) {
		row := make([]float64, 0, n-1)
		for i := lo; i < hi; i++ {
			w := vs[i]
			var dot, sq float64
			for j, g := range global {
				d := w[j] - g
				dot += d * meanDelta[j]
				sq += d * d
			}
			l2 := math.Sqrt(sq)
			fp := Fingerprint{L2: persist.Float(l2)}
			if l2 > 0 && mdNorm > 0 {
				fp.CosMean = persist.Float(dot / (l2 * mdNorm))
			}
			if n > 1 {
				row = row[:0]
				for j := 0; j < n; j++ {
					if j != i {
						row = append(row, dist[i][j])
					}
				}
				sort.Float64s(row)
				fp.MinNeighbor = persist.Float(math.Sqrt(row[0]))
				m := len(row)
				if m%2 == 1 {
					fp.MedNeighbor = persist.Float(math.Sqrt(row[m/2]))
				} else {
					fp.MedNeighbor = persist.Float(math.Sqrt(0.5 * (row[m/2-1] + row[m/2])))
				}
			}
			fps[i] = fp
		}
	})
	return fps
}
