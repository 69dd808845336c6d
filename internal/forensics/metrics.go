package forensics

import (
	"encoding/json"
	"math"
	"sort"

	"repro/internal/persist"
)

// Confusion is the per-decision confusion matrix of a defense viewed as a
// malicious-update detector: "positive" means malicious, "detected" means
// rejected. A malicious update the defense let into the aggregate is a
// false negative — exactly the DPR numerator, so cumulative FN reconciles
// with fl.Result.MaliciousPassed on synchronous selection-reporting runs.
type Confusion struct {
	// TP counts malicious updates the defense rejected.
	TP int `json:"tp"`
	// FP counts benign updates the defense rejected.
	FP int `json:"fp"`
	// TN counts benign updates the defense accepted.
	TN int `json:"tn"`
	// FN counts malicious updates the defense accepted (DPR's "passed").
	FN int `json:"fn"`
}

func (c *Confusion) add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

func ratio(num, den int) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// TPR is the true-positive rate TP/(TP+FN): the fraction of malicious
// updates filtered. NaN when no malicious update was observed.
func (c Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// FPR is the false-positive rate FP/(FP+TN): the fraction of benign
// updates wrongly filtered — the production cost of a defense.
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// Precision is TP/(TP+FP): of everything rejected, how much was actually
// malicious.
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// F1 is the harmonic mean of precision and TPR.
func (c Confusion) F1() float64 { return ratio(2*c.TP, 2*c.TP+c.FP+c.FN) }

// RoundMetrics is the detection snapshot of one aggregation.
type RoundMetrics struct {
	// Round is the engine round; Seq distinguishes multiple aggregations in
	// one round (async buffer flushes).
	Round int `json:"round"`
	Seq   int `json:"seq"`
	// Updates and Malicious count the aggregation's inputs.
	Updates   int `json:"updates"`
	Malicious int `json:"malicious"`
	// Known reports whether the defense exposed its selection; the
	// confusion matrix is meaningful only when it did.
	Known bool `json:"known"`
	// ZeroSelection marks a round with no responders or with every update
	// rejected — recorded, never skipped, so streaks of dead rounds are
	// visible in the audit stream.
	ZeroSelection bool `json:"zeroSelection"`
	Confusion     `json:"confusion"`
	// AUC is this round's ROC area over the defense's score vector; NaN
	// when the defense produced no scores or the round lacked one of the
	// two classes.
	AUC persist.Float `json:"auc"`
}

// MarshalJSON writes the metrics with the Confusion's rates between the
// confusion matrix and the AUC. Decoding needs no counterpart: the rates
// are methods over the decoded Confusion, so their keys are ignored.
func (m RoundMetrics) MarshalJSON() ([]byte, error) {
	type fields RoundMetrics // the fields without this method
	return json.Marshal(struct {
		fields
		TPR       persist.Float `json:"tpr"`
		FPR       persist.Float `json:"fpr"`
		Precision persist.Float `json:"precision"`
		F1        persist.Float `json:"f1"`
		AUC       persist.Float `json:"auc"` // shadows fields.AUC, to come last
	}{fields(m), persist.Float(m.TPR()), persist.Float(m.FPR()), persist.Float(m.Precision()), persist.Float(m.F1()), m.AUC})
}

// scorePair is one (suspicion, ground truth) observation. Suspicion is the
// negated Selection score, so higher = more suspicious and ROC sweeps run
// in one orientation for every defense.
type scorePair struct {
	suspicion float64
	malicious bool
}

// detectionAUC is the Mann-Whitney ROC area of the suspicion scores with
// average-rank tie handling: the probability a uniformly random malicious
// update out-scores a uniformly random benign one. O(K log K). NaN when a
// class is missing. pairs is left unmodified.
func detectionAUC(pairs []scorePair) float64 {
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.malicious {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	sorted := append([]scorePair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].suspicion < sorted[j].suspicion })
	// Sum of malicious ranks, averaging ranks across ties.
	rankSum := 0.0
	for i := 0; i < len(sorted); {
		// A tie group holds at least its first pair, even a NaN one, which
		// equals nothing.
		j := i + 1
		for j < len(sorted) && sorted[j].suspicion == sorted[i].suspicion {
			j++
		}
		avgRank := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			if sorted[k].malicious {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))
}

// rocPoint is one vertex of the ROC curve.
type rocPoint struct {
	FPR float64 `json:"fpr"`
	TPR float64 `json:"tpr"`
}

// rocCurve sweeps every distinct suspicion threshold (descending) and
// returns the ROC vertices from (0,0) to (1,1). O(K log K). nil when a
// class is missing.
func rocCurve(pairs []scorePair) []rocPoint {
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.malicious {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil
	}
	sorted := append([]scorePair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].suspicion > sorted[j].suspicion })
	curve := []rocPoint{{0, 0}}
	tp, fp := 0, 0
	for i := 0; i < len(sorted); {
		// A tie group holds at least its first pair, even a NaN one.
		j := i
		for j < len(sorted) && (j == i || sorted[j].suspicion == sorted[i].suspicion) {
			if sorted[j].malicious {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, rocPoint{float64(fp) / float64(neg), float64(tp) / float64(pos)})
		i = j
	}
	return curve
}

// tprAtFPR returns the best achievable TPR at a false-positive budget —
// the Shejwalkar-style production operating point (e.g. "TPR at 1% FPR").
// NaN when a class is missing.
func tprAtFPR(pairs []scorePair, budget float64) float64 {
	curve := rocCurve(pairs)
	if curve == nil {
		return math.NaN()
	}
	best := 0.0
	for _, pt := range curve {
		if pt.FPR <= budget && pt.TPR > best {
			best = pt.TPR
		}
	}
	return best
}

// Summary is the cumulative detection report of a run, in the one JSON
// shape the run store, the audit journal and the HTTP endpoint share.
type Summary struct {
	// Defense names the audited aggregation rule.
	Defense string `json:"defense"`
	// ScoreName names the score semantic of the ROC metrics; empty when the
	// defense produced no scores.
	ScoreName string `json:"scoreName,omitempty"`
	// Aggregations counts observed aggregations; DecisionRounds those with
	// a known selection; ZeroSelectionRounds those with no responders or an
	// all-filtered selection.
	Aggregations        int `json:"aggregations"`
	DecisionRounds      int `json:"decisionRounds"`
	ZeroSelectionRounds int `json:"zeroSelectionRounds"`
	// Updates and MaliciousSeen count the audited inputs.
	Updates       int `json:"updates"`
	MaliciousSeen int `json:"maliciousSeen"`
	// Confusion is the cumulative confusion matrix over decision rounds.
	Confusion Confusion `json:"confusion"`
	// TPR/FPR/Precision/F1 are the cumulative rates (NaN-guarded).
	TPR       persist.Float `json:"tpr"`
	FPR       persist.Float `json:"fpr"`
	Precision persist.Float `json:"precision"`
	F1        persist.Float `json:"f1"`
	// AUC is the cumulative ROC area over the score-pair reservoir, and
	// TPRAt1FPR the best TPR at a 1% false-positive budget — the two
	// scoreboard columns of the detection sweep. Both NaN without scores.
	AUC       persist.Float `json:"auc"`
	TPRAt1FPR persist.Float `json:"tprAt1pctFpr"`
	// ScorePairs counts all (score, truth) pairs observed; ReservoirLen how
	// many the bounded reservoir currently holds.
	ScorePairs   int `json:"scorePairs"`
	ReservoirLen int `json:"reservoirLen"`
}

// splitmix64 is the deterministic hash behind the reservoir's replacement
// draws, so a fixed-seed run keeps a bit-identical reservoir (time- and
// math/rand-free).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
