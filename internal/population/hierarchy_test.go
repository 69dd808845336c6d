package population

import (
	"errors"
	"math"
	"testing"

	"repro/internal/defense"
	"repro/internal/fl"
)

func mkUpdates(vals ...float64) []fl.Update {
	updates := make([]fl.Update, len(vals))
	for i, v := range vals {
		updates[i] = fl.Update{ClientID: i, Weights: []float64{v, -v}, NumSamples: 10}
	}
	return updates
}

// TestHierarchicalFedAvgMatchesFlat pins the associativity sanity check:
// sample-weighted group means under a sample-weighted server mean equal the
// flat weighted mean, up to floating-point re-association.
func TestHierarchicalFedAvgMatchesFlat(t *testing.T) {
	updates := mkUpdates(1, 2, 3, 4, 5, 6, 7)
	updates[2].NumSamples = 40 // uneven weights exercise the weighting path
	global := []float64{0, 0}

	flat, _, err := defense.FedAvg{}.Aggregate(global, updates)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hierarchical{Groups: 3, Group: defense.FedAvg{}, Server: defense.FedAvg{}}
	hier, sel, err := h.Aggregate(global, updates)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Known() {
		t.Fatalf("FedAvg tiers report no selection, got %v", sel.Accepted)
	}
	if len(sel.Groups) != len(updates) {
		t.Fatalf("group attribution missing: %v", sel.Groups)
	}
	for i := range flat {
		if math.Abs(flat[i]-hier[i]) > 1e-9 {
			t.Fatalf("coordinate %d: hierarchical %v != flat %v", i, hier[i], flat[i])
		}
	}
}

// pickLocal is a stub tier rule that selects and averages the updates at
// fixed local indices, so selection plumbing is observable.
type pickLocal struct{ idx []int }

func (p pickLocal) Name() string { return "pick" }

func (p pickLocal) Aggregate(_ []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	var sel []int
	for _, i := range p.idx {
		if i < len(updates) {
			sel = append(sel, i)
		}
	}
	out := make([]float64, len(updates[0].Weights))
	for _, i := range sel {
		for j, w := range updates[i].Weights {
			out[j] += w / float64(len(sel))
		}
	}
	return out, fl.Selection{Accepted: sel}, nil
}

// blendAll is a stub non-selecting tier rule (mean, selection unknown).
type blendAll struct{}

func (blendAll) Name() string { return "blend" }

func (blendAll) Aggregate(_ []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	out := make([]float64, len(updates[0].Weights))
	for _, u := range updates {
		for j, w := range u.Weights {
			out[j] += w / float64(len(updates))
		}
	}
	return out, fl.Selection{}, nil
}

// distTier is a stub tier rule that reports a fixed distance-matrix time.
type distTier struct{ ns int64 }

func (distTier) Name() string { return "dist" }

func (d distTier) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	out, _, err := blendAll{}.Aggregate(global, updates)
	return out, fl.Selection{DistanceNanos: d.ns}, err
}

// TestHierarchicalSumsDistanceTime: the hierarchical Selection carries the
// distance-matrix time of every group aggregation plus the server tier's.
func TestHierarchicalSumsDistanceTime(t *testing.T) {
	h := &Hierarchical{Groups: 3, Group: distTier{7}, Server: distTier{5}}
	_, sel, err := h.Aggregate([]float64{0, 0}, mkUpdates(1, 2, 3, 4, 5, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	if sel.DistanceNanos != 3*7+5 {
		t.Fatalf("DistanceNanos = %d, want 3 groups × 7 + server 5 = 26", sel.DistanceNanos)
	}
}

// TestHierarchicalSelectionMapping pins the DPR attribution contract:
// group-local selections map back to caller indices, filtered by the
// server tier's group selection.
func TestHierarchicalSelectionMapping(t *testing.T) {
	// Groups of 2 under id%2: group 0 holds callers {0,2,4,6}, group 1
	// holds {1,3,5}. Each group keeps its first local update.
	updates := mkUpdates(1, 2, 3, 4, 5, 6, 7)

	// Server non-selecting: every group's pass-through unions.
	h := &Hierarchical{Groups: 2, Group: pickLocal{idx: []int{0}}, Server: blendAll{}}
	_, sel, err := h.Aggregate([]float64{0, 0}, updates)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true}
	if len(sel.Accepted) != 2 || !want[sel.Accepted[0]] || !want[sel.Accepted[1]] {
		t.Fatalf("selection %v, want callers {0, 1}", sel.Accepted)
	}

	// Server selecting group 1 only: group 0's passes are filtered out.
	h = &Hierarchical{Groups: 2, Group: pickLocal{idx: []int{0, 1}}, Server: pickLocal{idx: []int{1}}}
	_, sel, err = h.Aggregate([]float64{0, 0}, updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 2 || sel.Accepted[0] != 1 || sel.Accepted[1] != 3 {
		t.Fatalf("selection %v, want callers [1 3] (group 1's first two)", sel.Accepted)
	}

	// Non-selecting group tier: attribution impossible, selection unknown.
	h = &Hierarchical{Groups: 2, Group: blendAll{}, Server: pickLocal{idx: []int{0}}}
	_, sel, err = h.Aggregate([]float64{0, 0}, updates)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Known() {
		t.Fatalf("non-selecting group tier must yield unknown selection, got %v", sel.Accepted)
	}
}

// TestHierarchicalRobustTiers runs real robust rules on both tiers and
// checks a coarse poisoning scenario: a Sybil burst that fully captures one
// group (ids 3, 7, 11 all land in group 3 under id mod 4) poisons that
// group's aggregate, but the server tier's mKrum rejects the outlier group,
// so no malicious update reaches the final selection.
func TestHierarchicalRobustTiers(t *testing.T) {
	var updates []fl.Update
	for i := 0; i < 12; i++ {
		v := 1.0 + 0.01*float64(i)
		if i%4 == 3 { // the captured group's members
			v = 1000
		}
		updates = append(updates, fl.Update{
			ClientID: i, Weights: []float64{v, v}, NumSamples: 10, Malicious: v == 1000,
		})
	}
	h := &Hierarchical{Groups: 4, Group: &defense.MultiKrum{F: 1}, Server: &defense.MultiKrum{F: 1}}
	out, sel, err := h.Aggregate([]float64{0, 0}, updates)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Known() {
		t.Fatal("mKrum tiers must report selection")
	}
	if sel.ScoreName != "rank:neg-krum-distance" || len(sel.Scores) != len(updates) {
		t.Fatalf("mKrum tiers should forward rank-normalized per-group scores, got %q (%d)", sel.ScoreName, len(sel.Scores))
	}
	for i, s := range sel.Scores {
		if s <= 0 || s > 1 {
			t.Fatalf("score %d = %v outside the (0,1] rank range", i, s)
		}
	}
	// Rank normalization must keep the captured group's colluders
	// comparable to benign updates: within every group the malicious 1000s
	// rank by their group-local geometry only.
	for i, s := range sel.Scores {
		if updates[i].Malicious && s > 0.9 {
			t.Fatalf("colluding update %d ranked near-benign (%v) after normalization", i, s)
		}
	}
	for _, i := range sel.Accepted {
		if updates[i].Malicious {
			t.Fatalf("malicious update %d passed the hierarchy", i)
		}
	}
	if math.Abs(out[0]) > 10 {
		t.Fatalf("aggregate %v dominated by malicious updates", out)
	}
}

// TestHierarchicalValidate pins configuration errors.
func TestHierarchicalValidate(t *testing.T) {
	bad := []*Hierarchical{
		{Groups: 0, Group: blendAll{}, Server: blendAll{}},
		{Groups: 2, Server: blendAll{}},
		{Groups: 2, Group: blendAll{}},
	}
	for i, h := range bad {
		if _, _, err := h.Aggregate([]float64{0}, mkUpdates(1, 2)); err == nil {
			t.Errorf("config %d should fail: %+v", i, h)
		}
	}
}

// TestHierarchicalCarriesItsTiersState: a hierarchy carries round state
// exactly when one of its tiers does, so a resume of one over FoolsGold is
// refused like a flat FoolsGold's.
func TestHierarchicalCarriesItsTiersState(t *testing.T) {
	for _, tc := range []struct {
		group, server fl.Aggregator
		want          string
	}{
		{defense.FedAvg{}, defense.FedAvg{}, ""},
		{defense.NewFoolsGold(1), defense.FedAvg{}, "foolsgold"},
		{defense.FedAvg{}, defense.NewFoolsGold(1), "foolsgold"},
	} {
		h := &Hierarchical{Groups: 2, Group: tc.group, Server: tc.server}
		var re *fl.ResumeError
		if err := fl.RefuseResume(h); (tc.want == "") != (err == nil) || err != nil && (!errors.As(err, &re) || re.Component != tc.want) {
			t.Errorf("%s refuses a resume with %v, want one naming %q", h.Name(), err, tc.want)
		}
	}
}
