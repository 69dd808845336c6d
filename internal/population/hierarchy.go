package population

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fl"
)

// Hierarchical is the production two-tier aggregation topology: G group
// aggregators each apply a robust rule to the updates of their group, and
// the server applies a (possibly different) robust rule to the G group
// aggregates. Every existing defense composes unmodified on either tier
// because both tiers speak fl.Aggregator.
//
// Group aggregates are presented to the server tier as virtual updates
// whose NumSamples is the group's total sample count, so sample-weighted
// server rules (FedAvg) recover exactly the flat weighted mean up to
// floating-point re-association.
//
// DPR accounting composes when it can: if every participating group's rule
// reports selection, the malicious updates that "passed" are those selected
// by their group AND belonging to a group the server tier kept (all groups,
// when the server rule is non-selecting). If any group rule is
// non-selecting, per-update attribution is impossible and the hierarchy
// reports no selection (DPR N/A), matching the paper's treatment of
// statistics-based defenses.
type Hierarchical struct {
	// Groups is G, the number of group aggregators.
	Groups int
	// Group is the per-group robust rule, applied sequentially to each
	// group (a single shared instance; stateful rules observe G calls per
	// round).
	Group fl.Aggregator
	// Server is the top-tier robust rule over the G group aggregates.
	Server fl.Aggregator
	// Assign maps a client ID to its group; nil means id mod Groups. The
	// assignment must be a pure function so a client aggregates under the
	// same group every round.
	Assign func(clientID int) int

	// Per-round scratch, refilled by every Aggregate; the Selection it
	// returns aliases groups, scores and accepted until the next one.
	buckets      [][]fl.Update // the round's updates, by group
	indices      [][]int       // their positions in the caller's slice
	groupUpdates []fl.Update   // the non-empty groups' aggregates
	passed       [][]int       // the positions each of those let through
	groups       []int
	scores       []float64
	accepted     []int
}

var _ fl.Aggregator = (*Hierarchical)(nil)

// Name implements fl.Aggregator.
func (h *Hierarchical) Name() string {
	return fmt.Sprintf("hier-%d(%s/%s)", h.Groups, h.Group.Name(), h.Server.Name())
}

// CarriedState implements fl.RoundState: its tiers' state.
func (h *Hierarchical) CarriedState() error { return fl.RefuseResume(h.Group, h.Server) }

// Validate reports configuration errors.
func (h *Hierarchical) Validate() error {
	if h.Groups <= 0 {
		return errors.New("population: hierarchical Groups must be positive")
	}
	if h.Group == nil || h.Server == nil {
		return errors.New("population: hierarchical tiers must both be set")
	}
	return nil
}

// group returns the group index of one client ID.
func (h *Hierarchical) group(clientID int) int {
	g := clientID
	if h.Assign != nil {
		g = h.Assign(clientID)
	}
	g %= h.Groups
	if g < 0 {
		g += h.Groups
	}
	return g
}

// Aggregate implements fl.Aggregator. The returned Selection always
// carries the per-update group attribution (Selection.Groups) and both
// tiers' summed DistanceNanos; Accepted is composed as described above.
// Scores are forwarded when every participating group produced a score
// vector of the same kind, but raw per-group scores are NOT comparable
// across groups (a Krum distance depends on its group's geometry), so each
// group's scores are mapped to their within-group average ranks
// normalized to (0, 1] first — the
// probability-integral transform that makes a single pooled ROC sweep
// (the forensics AUC / TPR@FPR reservoir) well-defined. ScoreName gains a
// "rank:" prefix to mark the transform. One blindness is inherent and
// deliberate: ranks are relative to the group, so colluders that fully
// capture a group rank "benign" within it — faithfully reporting that the
// group-tier score channel cannot see full-group capture (neither can the
// group's defense; that is what the server tier exists for, and the
// confusion-matrix channel, which includes the server tier's group
// filtering, does record those attackers as rejected).
func (h *Hierarchical) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	if err := h.Validate(); err != nil {
		return nil, fl.Selection{}, err
	}
	if len(updates) == 0 {
		return nil, fl.Selection{}, errors.New("population: no updates to aggregate")
	}

	// Bucket the round's updates by group, remembering each update's index
	// in the caller's slice for DPR attribution.
	h.buckets = emptySlots(h.buckets, h.Groups)
	h.indices = emptySlots(h.indices, h.Groups)
	h.passed = emptySlots(h.passed, h.Groups)
	h.groups = h.groups[:0]
	for i, u := range updates {
		g := h.group(u.ClientID)
		h.buckets[g] = append(h.buckets[g], u)
		h.indices[g] = append(h.indices[g], i)
		h.groups = append(h.groups, g)
	}

	// Tier 1: one robust aggregate per non-empty group. Each group's
	// Selection is consumed before the group rule's next Aggregate.
	h.groupUpdates = h.groupUpdates[:0]
	selectionKnown := true
	scoresKnown := true
	scoreName := ""
	h.scores = slices.Grow(h.scores[:0], len(updates))[:len(updates)]
	clear(h.scores)
	var distNanos int64
	for g, bucket := range h.buckets {
		if len(bucket) == 0 {
			continue
		}
		agg, sel, err := h.Group.Aggregate(global, bucket)
		if err != nil {
			return nil, fl.Selection{}, fmt.Errorf("population: group %d: %w", g, err)
		}
		distNanos += sel.DistanceNanos
		samples := 0
		for _, u := range bucket {
			samples += u.NumSamples
		}
		// Virtual group update: negative IDs keep group aggregates disjoint
		// from any real client ID space.
		h.groupUpdates = append(h.groupUpdates, fl.Update{
			ClientID:   -(g + 1),
			Weights:    agg,
			NumSamples: samples,
		})
		if len(sel.Scores) == len(bucket) && sel.ScoreName != "" &&
			(scoreName == "" || scoreName == "rank:"+sel.ScoreName) {
			scoreName = "rank:" + sel.ScoreName
			for i, rank := range fl.ScoreRanks(sel.Scores) {
				h.scores[h.indices[g][i]] = rank
			}
		} else {
			scoresKnown = false
		}
		if sel.Accepted == nil {
			selectionKnown = false
			continue
		}
		passed := &h.passed[len(h.groupUpdates)-1]
		for _, local := range sel.Accepted {
			if local < 0 || local >= len(bucket) {
				return nil, fl.Selection{}, fmt.Errorf("population: group %d selected out-of-range update %d", g, local)
			}
			*passed = append(*passed, h.indices[g][local])
		}
	}

	// Tier 2: the server's robust rule over the group aggregates.
	final, serverSel, err := h.Server.Aggregate(global, h.groupUpdates)
	if err != nil {
		return nil, fl.Selection{}, fmt.Errorf("population: server tier: %w", err)
	}
	out := fl.Selection{Groups: h.groups, DistanceNanos: distNanos + serverSel.DistanceNanos}
	if scoresKnown && scoreName != "" {
		out.Scores = h.scores
		out.ScoreName = scoreName
	}
	if !selectionKnown {
		return final, out, nil
	}
	keep := make([]bool, len(h.groupUpdates))
	if serverSel.Accepted == nil {
		for i := range keep {
			keep[i] = true
		}
	} else {
		for _, gi := range serverSel.Accepted {
			if gi < 0 || gi >= len(h.groupUpdates) {
				return nil, fl.Selection{}, fmt.Errorf("population: server tier selected out-of-range group %d", gi)
			}
			keep[gi] = true
		}
	}
	// Selection is known (possibly empty, which DPR counts as a round where
	// no update passed, unlike the nil "unknown").
	if h.accepted == nil {
		h.accepted = make([]int, 0, len(updates))
	}
	h.accepted = h.accepted[:0]
	for gi, passed := range h.passed[:len(h.groupUpdates)] {
		if keep[gi] {
			h.accepted = append(h.accepted, passed...)
		}
	}
	out.Accepted = h.accepted
	return final, out, nil
}

// emptySlots returns s with n empty slots, each keeping its storage.
func emptySlots[T any](s [][]T, n int) [][]T {
	for len(s) < n {
		s = append(s, nil)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
