// Package fl implements the federated-learning framework of the paper's
// experimental setup (Section II-A and IV-A): a population of clients, a
// central server that selects a subset per round, local training on private
// shards, pluggable robust aggregation, and the metric accounting for
// attack success rate (ASR) and defense pass rate (DPR).
package fl

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/codec"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// Update is one client's submission for a round: the full local model weight
// vector w_i(t+1) (Eq. 1) plus the metadata the server legitimately knows.
type Update struct {
	// ClientID identifies the submitting client.
	ClientID int
	// Weights is the flat local model weight vector; nil for a frame-only
	// update (see Frame).
	Weights []float64
	// NumSamples is the client's reported training-set size n_i (Eq. 2).
	NumSamples int
	// Malicious marks updates crafted by the adversary. The server never
	// reads this field; it exists purely for metric accounting.
	Malicious bool
	// Frame is the compressed form of the update when a codec is active.
	// A compressed update reaches the aggregator as its frame alone
	// (Weights nil): codec-aware defenses read geometry from the frame, and
	// a consumer that needs the dense vector asks Vector for it, against the
	// global the frame was encoded from. An update carrying both uses
	// Weights as its dense vector.
	Frame *codec.Frame
}

// Vector returns the update's dense weight vector: Weights when set,
// otherwise the frame reconstructed against global — the round's global
// model the frame was encoded from — freshly allocated.
func (u Update) Vector(global []float64) []float64 {
	if u.Weights != nil || u.Frame == nil {
		return u.Weights
	}
	return u.Frame.Reconstruct(global)
}

// Intake is the rule every update passes before aggregation (see Engine),
// whichever transport or attack produced it: its dimension — len(Weights),
// or Frame.Dim for a frame-only update — equals dim, the global model's;
// its NumSamples is not negative; and a dense update's values are all
// finite. A frame is not scanned: codec.DecodeWireInto refuses a non-finite
// wire frame, and the engine encodes its own frames after intake. ok is
// false for a refused update, reason says why.
func Intake(u Update, dim int) (reason telemetry.IntakeReason, ok bool) {
	n := len(u.Weights)
	if u.Weights == nil && u.Frame != nil {
		n = u.Frame.Dim
	}
	switch {
	case n != dim:
		return telemetry.IntakeDimension, false
	case u.NumSamples < 0:
		return telemetry.IntakeSamples, false
	case !allFinite(u.Weights):
		return telemetry.IntakeNonFinite, false
	}
	return 0, true
}

// allFinite reports whether every value of v is finite: ±Inf and NaN are
// the values whose exponent bits are all set.
func allFinite(v []float64) bool {
	const expMask = 0x7FF << 52
	for _, x := range v {
		if math.Float64bits(x)&expMask == expMask {
			return false
		}
	}
	return true
}

// Selection is the uniform per-round decision report of an aggregation
// rule: which updates entered the aggregate, with what weight, and — for
// score-producing defenses — the raw per-update score the decision was cut
// from. It is the seam the forensics subsystem audits: every field indexes
// the round's updates slice positionally. Its slices may be the rule's
// scratch, valid until the rule's next Aggregate (see Aggregator).
type Selection struct {
	// Accepted lists the indices of updates included in the aggregate; it
	// drives the DPR metric (Eq. 5). nil means the defense does not report
	// selection (median, trimmed mean — "N/A" in the paper); an empty
	// non-nil slice means the defense rejected every update this round.
	Accepted []int
	// Weights holds one aggregation weight per update for weighted rules
	// (FoolsGold); nil means uniform weighting over Accepted.
	Weights []float64
	// Scores holds one benignness score per update for score-producing
	// defenses (REFD's D-score, FoolsGold's logit weight, the Krum family's
	// negated neighbour distance). Higher always means "more benign", so
	// downstream ROC sweeps need no per-defense orientation. nil when the
	// rule produces no scores.
	Scores []float64
	// ScoreName names the Scores semantic ("dscore", "foolsgold-weight",
	// "neg-krum-distance"); empty when Scores is nil.
	ScoreName string
	// Groups attributes each update to the group-tier aggregator that
	// consumed it under hierarchical aggregation; nil for flat rules.
	Groups []int
	// Distances, when non-nil, is the round's pairwise squared-distance
	// matrix over the update weight vectors, shared by distance-based rules
	// (Krum family, Bulyan) so forensic fingerprinting does not recompute
	// the O(n²·d) geometry the defense already paid for.
	Distances [][]float64
	// DistanceNanos is the summed wall time of the pairwise distance
	// matrices the rule computed this round (hierarchical rules sum their
	// tiers); 0 when it computed none. It is observation only — the engine
	// records it on the federation's telemetry — and no decision reads it.
	DistanceNanos int64
}

// Known reports whether the defense exposed its accept/reject decisions.
func (s Selection) Known() bool { return s.Accepted != nil }

// ScoreRanks maps raw benignness scores onto their average ranks
// normalized to (0, 1] (ties share their average rank). Rank order — all
// an ROC sweep consumes — is preserved, while the score scale disappears;
// it is the probability-integral transform that makes scores from
// different contexts (hierarchy groups with different geometries, rounds
// at different training stages) poolable into one sweep.
func ScoreRanks(scores []float64) []float64 {
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		// A tie group holds at least its first score, even a NaN one,
		// which equals nothing.
		j := i + 1
		for j < n && scores[order[j]] == scores[order[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			out[order[k]] = avg / float64(n)
		}
		i = j
	}
	return out
}

// Aggregator is a server-side aggregation rule, possibly Byzantine-robust.
//
// One round lifetime: the Selection an Aggregate returns, with its
// Accepted, Scores, Distances and every other slice, stays valid only until
// the same aggregator's next Aggregate — the Krum-family rules and the
// hierarchy refill scratch they own — so a consumer that keeps any of it
// (an observer, a hierarchy tier composing its groups) copies what it
// keeps. The returned weights are the caller's. One goroutine drives an
// aggregator.
type Aggregator interface {
	// Name returns the defense's display name.
	Name() string
	// Aggregate combines the round's updates into new global weights and
	// reports the rule's Selection. Selection-based defenses (Krum-family,
	// Bulyan, FoolsGold, REFD) fill Accepted (which drives the DPR metric)
	// plus their weights/scores; statistics-based defenses (median, trimmed
	// mean) return a zero Selection because "passing" is undefined for them
	// (Eq. 5 discussion in the paper).
	Aggregate(global []float64, updates []Update) (newGlobal []float64, sel Selection, err error)
}

// AggregationObserver receives every server aggregation decision: the
// round's updates (whose Malicious flags are the simulator's ground truth),
// the defense's Selection, and the global weights the updates were judged
// against — all valid only for the call (see Aggregator, Transport). A zero-responder or all-filtered round is reported too — with an
// empty updates slice or an empty Accepted — so audit streams never skip
// rounds silently. Implementations are called from the engine goroutine,
// synchronously, once per aggregation (async buffer flushes included).
type AggregationObserver interface {
	ObserveAggregation(round int, global []float64, updates []Update, sel Selection)
}

// AttackContext is everything the adversary may see in one round. The
// fields mirror Table I of the paper: DFA uses only the global models and
// task metadata, whereas the baseline attacks additionally read the benign
// updates oracle — and say so by implementing OracleAttack.
type AttackContext struct {
	// Round is the current round index, starting at 0.
	Round int
	// Global is the current global weight vector w(t).
	Global []float64
	// PrevGlobal is the previous round's global weight vector w(t−1); equal
	// to Global in round 0.
	PrevGlobal []float64
	// BenignUpdates holds the weight vectors of this round's benign
	// updates, for an OracleAttack only. The engine leaves it nil for every
	// other attack, whose Craft may be running before any benign update
	// exists (see Engine.collectAttacked).
	BenignUpdates [][]float64
	// NumAttackers is the number of malicious clients selected this round.
	NumAttackers int
	// NumSelected is the total number of clients selected this round.
	NumSelected int
	// TotalClients and TotalAttackers describe the whole population.
	TotalClients, TotalAttackers int
	// NewModel constructs a model with the experiment's architecture; the
	// adversary legitimately knows the architecture because the server
	// distributes the model.
	NewModel func(rng *rand.Rand) *nn.Network
	// Rng is the adversary's private randomness source.
	Rng *rand.Rand
}

// Attack crafts the adversary's submissions for a round. The engine may
// call Craft from a helper goroutine, beside the round's benign training,
// but never from two goroutines at once and never past the end of Run.
type Attack interface {
	// Name returns the attack's display name.
	Name() string
	// Craft returns one malicious weight vector per selected attacker. The
	// paper allows all attackers to submit the same update; implementations
	// may instead add small perturbations to evade Sybil defenses.
	Craft(ctx *AttackContext) ([][]float64, error)
}

// OracleAttack is an Attack that reads AttackContext.BenignUpdates — the
// "knowledge of benign updates" column of the paper's Table I, as code. The
// engine fills the field for declarers only, and they craft after Collect;
// an attack that reads the field without declaring it sees nil.
type OracleAttack interface {
	Attack
	// ReadsBenignUpdates is the declaration; it is never called.
	ReadsBenignUpdates()
}

// ASR computes the attack success rate of Eq. 4: the relative accuracy drop
// from the clean (no attack, no defense) accuracy to the best accuracy the
// global model reached under attack, in percent.
func ASR(cleanAcc, maxAttackedAcc float64) float64 {
	if cleanAcc == 0 {
		return 0
	}
	return (cleanAcc - maxAttackedAcc) / cleanAcc * 100
}

// RoundStats records what happened in a single round, including the
// participation trace of the engine's sampler and churn model.
type RoundStats struct {
	// Round is the round index.
	Round int
	// Accuracy is the global model's test accuracy after aggregation, in
	// [0, 1]; NaN when the round was not evaluated.
	Accuracy float64
	// SelectedMalicious is the number of malicious clients selected.
	SelectedMalicious int
	// PassedMalicious is the number of malicious updates the defense let
	// into the aggregate (−1 when the defense does not report selection).
	PassedMalicious int
	// Selected is the number of clients the sampler picked this round.
	Selected int
	// Dropped counts selected clients the participation model made
	// unavailable (they never trained).
	Dropped int
	// Straggled counts selected clients that trained but missed the round
	// deadline, so their update was discarded.
	Straggled int
	// Responded is the number of updates produced this round that passed
	// the engine's intake (crafted malicious updates included; see Intake).
	// In sync mode they all reach the round's aggregation; in async mode
	// they are dispatched into the delay buffer and may aggregate in a
	// later round.
	Responded int
	// Aggregations is the number of server aggregations applied this round:
	// 1 per synchronous round with responders, 0 for a zero-responder
	// round, and the number of buffer flushes in async mode.
	Aggregations int
}

// Result aggregates a full simulation run.
type Result struct {
	// Rounds holds per-round statistics.
	Rounds []RoundStats
	// MaxAccuracy is the paper's acc_m: the best evaluated accuracy over
	// the run, in [0, 1].
	MaxAccuracy float64
	// FinalAccuracy is the accuracy after the last round.
	FinalAccuracy float64
	// MaliciousSubmitted and MaliciousPassed accumulate the DPR denominator
	// and numerator of Eq. 5 over all rounds; a crafted update the intake
	// refused was never submitted to the defense.
	MaliciousSubmitted, MaliciousPassed int
	// DPRKnown reports whether the defense exposes selection (mKrum,
	// Bulyan, REFD); when false DPR is undefined ("N/A" in the paper).
	DPRKnown bool
}

// DPR returns the defense pass rate of Eq. 5 in percent, or NaN when the
// defense does not report selection or no attacker was ever selected.
func (r *Result) DPR() float64 {
	if !r.DPRKnown || r.MaliciousSubmitted == 0 {
		return math.NaN()
	}
	return float64(r.MaliciousPassed) / float64(r.MaliciousSubmitted) * 100
}
