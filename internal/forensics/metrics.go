package forensics

import (
	"encoding/json"
	"math"
	"sort"
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
	Round, Seq int
	// Updates and Malicious count the aggregation's inputs.
	Updates, Malicious int
	// Known reports whether the defense exposed its selection; the
	// confusion matrix is meaningful only when it did.
	Known bool
	// ZeroSelection marks a round with no responders or with every update
	// rejected — recorded, never skipped, so streaks of dead rounds are
	// visible in the audit stream.
	ZeroSelection bool
	Confusion
	// AUC is this round's ROC area over the defense's score vector; NaN
	// when the defense produced no scores or the round lacked one of the
	// two classes.
	AUC float64
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

// Summary is the cumulative detection report of a run.
type Summary struct {
	// Defense names the audited aggregation rule.
	Defense string
	// ScoreName names the score semantic of the ROC metrics; empty when the
	// defense produced no scores.
	ScoreName string
	// Aggregations counts observed aggregations; DecisionRounds those with
	// a known selection; ZeroSelectionRounds those with no responders or an
	// all-filtered selection.
	Aggregations, DecisionRounds, ZeroSelectionRounds int
	// Updates and MaliciousSeen count the audited inputs.
	Updates, MaliciousSeen int
	// Confusion is the cumulative confusion matrix over decision rounds.
	Confusion Confusion
	// TPR/FPR/Precision/F1 are the cumulative rates (NaN-guarded).
	TPR, FPR, Precision, F1 float64
	// AUC is the cumulative ROC area over the score-pair reservoir, and
	// TPRAt1FPR the best TPR at a 1% false-positive budget — the two
	// scoreboard columns of the detection sweep. Both NaN without scores.
	AUC, TPRAt1FPR float64
	// ScorePairs counts all (score, truth) pairs observed; ReservoirLen how
	// many the bounded reservoir currently holds.
	ScorePairs, ReservoirLen int
}

// summaryJSON is Summary's one serialization shape — shared by the run
// store, the audit journal and the HTTP endpoint — with every NaN-able
// rate as a nullable pointer (encoding/json rejects NaN).
type summaryJSON struct {
	Defense             string    `json:"defense"`
	ScoreName           string    `json:"scoreName,omitempty"`
	Aggregations        int       `json:"aggregations"`
	DecisionRounds      int       `json:"decisionRounds"`
	ZeroSelectionRounds int       `json:"zeroSelectionRounds"`
	Updates             int       `json:"updates"`
	MaliciousSeen       int       `json:"maliciousSeen"`
	Confusion           Confusion `json:"confusion"`
	TPR                 *float64  `json:"tpr"`
	FPR                 *float64  `json:"fpr"`
	Precision           *float64  `json:"precision"`
	F1                  *float64  `json:"f1"`
	AUC                 *float64  `json:"auc"`
	TPRAt1FPR           *float64  `json:"tprAt1pctFpr"`
	ScorePairs          int       `json:"scorePairs"`
	ReservoirLen        int       `json:"reservoirLen"`
}

// MarshalJSON implements json.Marshaler with the nullable-rate shape.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{
		Defense:             s.Defense,
		ScoreName:           s.ScoreName,
		Aggregations:        s.Aggregations,
		DecisionRounds:      s.DecisionRounds,
		ZeroSelectionRounds: s.ZeroSelectionRounds,
		Updates:             s.Updates,
		MaliciousSeen:       s.MaliciousSeen,
		Confusion:           s.Confusion,
		TPR:                 jf(s.TPR),
		FPR:                 jf(s.FPR),
		Precision:           jf(s.Precision),
		F1:                  jf(s.F1),
		AUC:                 jf(s.AUC),
		TPRAt1FPR:           jf(s.TPRAt1FPR),
		ScorePairs:          s.ScorePairs,
		ReservoirLen:        s.ReservoirLen,
	})
}

// UnmarshalJSON implements json.Unmarshaler: null rates decode to NaN.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var raw summaryJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	nan := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	*s = Summary{
		Defense:             raw.Defense,
		ScoreName:           raw.ScoreName,
		Aggregations:        raw.Aggregations,
		DecisionRounds:      raw.DecisionRounds,
		ZeroSelectionRounds: raw.ZeroSelectionRounds,
		Updates:             raw.Updates,
		MaliciousSeen:       raw.MaliciousSeen,
		Confusion:           raw.Confusion,
		TPR:                 nan(raw.TPR),
		FPR:                 nan(raw.FPR),
		Precision:           nan(raw.Precision),
		F1:                  nan(raw.F1),
		AUC:                 nan(raw.AUC),
		TPRAt1FPR:           nan(raw.TPRAt1FPR),
		ScorePairs:          raw.ScorePairs,
		ReservoirLen:        raw.ReservoirLen,
	}
	return nil
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
