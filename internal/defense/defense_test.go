package defense

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/vec"
)

func mkUpdates(vs [][]float64, malicious []bool) []fl.Update {
	us := make([]fl.Update, len(vs))
	for i, v := range vs {
		us[i] = fl.Update{ClientID: i, Weights: v, NumSamples: 10}
		if malicious != nil {
			us[i].Malicious = malicious[i]
		}
	}
	return us
}

// cluster returns nBenign vectors near the origin plus nMal outliers, each
// placed in a *different* direction at the given offset so they do not
// collude (see TestKrumColludersCanPass for the colluding case).
func cluster(rng *rand.Rand, dim, nBenign, nMal int, offset float64) ([]fl.Update, []bool) {
	var vs [][]float64
	var mal []bool
	for i := 0; i < nBenign; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64() * 0.1
		}
		vs = append(vs, v)
		mal = append(mal, false)
	}
	for i := 0; i < nMal; i++ {
		v := make([]float64, dim)
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		for d := range v {
			v[d] = sign*offset*float64(i+1) + rng.NormFloat64()*0.1
		}
		vs = append(vs, v)
		mal = append(mal, true)
	}
	return mkUpdates(vs, mal), mal
}

// TestKrumColludersCanPass documents the collusion weakness the paper's
// attacks exploit: when all attackers submit (nearly) identical updates,
// their mutual distances are tiny, so in late iterations of Bulyan's
// selection an attacker pair can out-score the remaining benign updates.
// This is expected behaviour of the defense, not a bug in this package.
func TestKrumColludersCanPass(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var vs [][]float64
	for i := 0; i < 8; i++ {
		v := make([]float64, 20)
		for d := range v {
			v[d] = rng.NormFloat64() * 0.5
		}
		vs = append(vs, v)
	}
	for i := 0; i < 2; i++ {
		v := make([]float64, 20)
		for d := range v {
			v[d] = 3 + rng.NormFloat64()*0.001 // colluding near-duplicates
		}
		vs = append(vs, v)
	}
	us := mkUpdates(vs, []bool{false, false, false, false, false, false, false, false, true, true})
	_, sel, err := (&Bulyan{F: 2}).Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 6 {
		t.Fatalf("selected %d, want 6", len(sel.Accepted))
	}
	// No assertion that attackers are excluded — with near-duplicate
	// colluders they may legitimately pass; the test only pins that the
	// selection machinery stays well-formed in this regime.
	seen := map[int]bool{}
	for _, idx := range sel.Accepted {
		if idx < 0 || idx >= len(us) || seen[idx] {
			t.Fatalf("malformed selection %v", sel.Accepted)
		}
		seen[idx] = true
	}
}

func TestFedAvgWeighted(t *testing.T) {
	us := []fl.Update{
		{Weights: []float64{0, 0}, NumSamples: 1},
		{Weights: []float64{10, 10}, NumSamples: 3},
	}
	got, sel, err := FedAvg{}.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Known() {
		t.Fatal("FedAvg should not report selection")
	}
	if got[0] != 7.5 || got[1] != 7.5 {
		t.Fatalf("FedAvg = %v, want [7.5 7.5]", got)
	}
}

func TestFedAvgNonPositiveSamples(t *testing.T) {
	us := []fl.Update{
		{Weights: []float64{2}, NumSamples: 0},
		{Weights: []float64{4}, NumSamples: -3},
	}
	got, _, err := FedAvg{}.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("FedAvg with clamped samples = %v, want 3", got[0])
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	us := mkUpdates([][]float64{{1}, {2}, {1000}}, nil)
	got, sel, err := Median{}.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Known() {
		t.Fatal("Median should not report selection")
	}
	if got[0] != 2 {
		t.Fatalf("Median = %v, want 2", got[0])
	}
}

func TestTrimmedMeanDropsExtremes(t *testing.T) {
	us := mkUpdates([][]float64{{-1000}, {1}, {2}, {3}, {1000}}, nil)
	got, _, err := TrimmedMean{Trim: 1}.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("TrimmedMean = %v, want 2", got[0])
	}
}

func TestTrimmedMeanClampsForSmallRounds(t *testing.T) {
	us := mkUpdates([][]float64{{1}, {5}}, nil)
	got, _, err := TrimmedMean{Trim: 3}.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("clamped TrimmedMean = %v, want 3", got[0])
	}
}

func TestTrimmedMeanNegativeTrim(t *testing.T) {
	us := mkUpdates([][]float64{{1}}, nil)
	if _, _, err := (TrimmedMean{Trim: -1}).Aggregate(nil, us); err == nil {
		t.Fatal("expected error for negative trim")
	}
}

func TestMultiKrumExcludesOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	us, mal := cluster(rng, 20, 8, 2, 50)
	agg := &MultiKrum{F: 2}
	got, sel, err := agg.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 8 {
		t.Fatalf("mKrum selected %d, want n-F=8", len(sel.Accepted))
	}
	for _, idx := range sel.Accepted {
		if mal[idx] {
			t.Fatalf("mKrum selected outlier %d", idx)
		}
	}
	if vec.Norm2(got) > 1 {
		t.Fatalf("mKrum aggregate %v too far from benign cluster", vec.Norm2(got))
	}
}

func TestKrumSelectsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	us, mal := cluster(rng, 10, 7, 3, 30)
	agg := &MultiKrum{F: 3, M: 1}
	if agg.Name() != "krum" {
		t.Fatalf("Name = %q, want krum", agg.Name())
	}
	_, sel, err := agg.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 1 {
		t.Fatalf("Krum selected %d updates, want 1", len(sel.Accepted))
	}
	if mal[sel.Accepted[0]] {
		t.Fatal("Krum selected the outlier")
	}
}

func TestBulyanExcludesOutliersAndStaysInHull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	us, mal := cluster(rng, 15, 8, 2, 40)
	agg := &Bulyan{F: 2}
	got, sel, err := agg.Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 6 { // theta = 10 - 2*2
		t.Fatalf("Bulyan selected %d, want 6", len(sel.Accepted))
	}
	for _, idx := range sel.Accepted {
		if mal[idx] {
			t.Fatalf("Bulyan selected outlier %d", idx)
		}
	}
	if vec.Norm2(got) > 1 {
		t.Fatalf("Bulyan aggregate norm %v too large", vec.Norm2(got))
	}
}

func TestEmptyUpdatesError(t *testing.T) {
	aggs := []fl.Aggregator{FedAvg{}, Median{}, TrimmedMean{Trim: 1}, &MultiKrum{F: 1}, &Bulyan{F: 1}}
	for _, a := range aggs {
		if _, _, err := a.Aggregate(nil, nil); err == nil {
			t.Errorf("%s: expected error for empty updates", a.Name())
		}
	}
}

func TestSingleUpdateAllDefenses(t *testing.T) {
	us := mkUpdates([][]float64{{1, 2, 3}}, nil)
	aggs := []fl.Aggregator{FedAvg{}, Median{}, TrimmedMean{Trim: 2}, &MultiKrum{F: 2}, &Bulyan{F: 2}}
	for _, a := range aggs {
		got, _, err := a.Aggregate(nil, us)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for d, want := range []float64{1, 2, 3} {
			if got[d] != want {
				t.Fatalf("%s: single update aggregate = %v", a.Name(), got)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fedavg", "median", "trmean", "krum", "mkrum", "bulyan"} {
		a, err := ByName(name, 2)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
	}
	if _, err := ByName("quantum-shield", 2); err == nil {
		t.Fatal("expected error for unknown defense")
	}
}

// Property: for every statistical defense, each coordinate of the aggregate
// lies within [min, max] of the submitted values for that coordinate —
// the defining robustness property the paper's attacks must work around.
func TestAggregateWithinHullProperty(t *testing.T) {
	aggs := []fl.Aggregator{Median{}, TrimmedMean{Trim: 1}, &MultiKrum{F: 1}, &Bulyan{F: 1}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		dim := 1 + rng.Intn(5)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, dim)
			for d := range vs[i] {
				vs[i][d] = rng.NormFloat64() * 10
			}
		}
		us := mkUpdates(vs, nil)
		for _, a := range aggs {
			got, _, err := a.Aggregate(nil, us)
			if err != nil {
				return false
			}
			for d := 0; d < dim; d++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for i := range vs {
					lo = math.Min(lo, vs[i][d])
					hi = math.Max(hi, vs[i][d])
				}
				if got[d] < lo-1e-9 || got[d] > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiKrumPermutationProperty is the aggregators' order oracle: every
// rule ByName builds, REFD, adaptive REFD and the two-tier hierarchy
// accept the same multiset of vectors, and as many malicious updates, and
// reach the same aggregate, whatever order a round's updates arrive in —
// also when the attackers are Sybils sending identical copies. Among
// identical copies most rules may pick another copy, so the oracle compares
// vectors; Krum and Bulyan break such ties by client ID, so for them it
// compares the accepted client IDs too. (mKrum still ranks equal scores by
// arrival slot.) An update keeps its ID through the shuffle.
func TestMultiKrumPermutationProperty(t *testing.T) {
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 9)
	ref, err := core.BalancedReference(test, 4)
	if err != nil {
		t.Fatal(err)
	}
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	global := newModel(rand.New(rand.NewSource(1))).WeightVector()
	type rule struct {
		name  string
		build func() (fl.Aggregator, error) // a fresh instance: FoolsGold keeps history
	}
	var rules []rule
	for _, name := range []string{"fedavg", "median", "trmean", "krum", "mkrum", "bulyan", "foolsgold"} {
		rules = append(rules, rule{name, func() (fl.Aggregator, error) { return ByName(name, 2) }})
	}
	rules = append(rules,
		rule{"refd", func() (fl.Aggregator, error) { return core.NewREFD(ref, newModel, 1, 2) }},
		rule{"refd-adaptive", func() (fl.Aggregator, error) { return core.NewAdaptiveREFD(ref, newModel, 2, 0.5, 2) }},
		rule{"hier-3(mkrum/median)", func() (fl.Aggregator, error) {
			return &population.Hierarchical{Groups: 3, Group: &MultiKrum{F: 1}, Server: Median{}}, nil
		}})
	// accepted sorts the vectors sel accepts and counts the malicious ones;
	// nil vectors mean the rule reports no selection.
	accepted := func(us []fl.Update, sel fl.Selection) ([][]float64, int) {
		if sel.Accepted == nil {
			return nil, 0
		}
		vs, mal := [][]float64{}, 0
		for _, i := range sel.Accepted {
			vs = append(vs, us[i].Weights)
			if us[i].Malicious {
				mal++
			}
		}
		slices.SortFunc(vs, slices.Compare)
		return vs, mal
	}
	byClientID := map[string]bool{"krum": true, "bulyan": true}
	for _, sybil := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// 12 updates near the global model; the first 3 are attackers,
			// each pushed its own way, or all one way as identical copies.
			const n, attackers = 12, 3
			us := make([]fl.Update, n)
			shared := make([]float64, len(global))
			for d := range shared {
				shared[d] = rng.NormFloat64() * 0.3
			}
			for i := range us {
				w := slices.Clone(global)
				for d := range w {
					switch {
					case i < attackers && sybil:
						w[d] += shared[d]
					case i < attackers:
						w[d] += rng.NormFloat64() * 0.3
					default:
						w[d] += rng.NormFloat64() * 0.01
					}
				}
				us[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 10 + i, Malicious: i < attackers}
			}
			shuffled := slices.Clone(us)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, r := range rules {
				var outs [2][]float64
				var vs [2][][]float64
				var mal [2]int
				var ids [2][]int
				for k, round := range [][]fl.Update{us, shuffled} {
					agg, err := r.build()
					if err != nil {
						t.Fatal(err)
					}
					out, sel, err := agg.Aggregate(global, round)
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					outs[k] = slices.Clone(out)
					vs[k], mal[k] = accepted(round, sel)
					for _, i := range sel.Accepted {
						ids[k] = append(ids[k], round[i].ClientID)
					}
					slices.Sort(ids[k])
				}
				where := fmt.Sprintf("%s, sybil %v, seed %d", r.name, sybil, seed)
				if (vs[0] == nil) != (vs[1] == nil) || !slices.EqualFunc(vs[0], vs[1], slices.Equal) {
					t.Errorf("%s: the shuffle changed the accepted vectors", where)
				}
				// A Sybil's copies tie exactly; a rule that breaks the tie
				// by client ID passes the same clients either way.
				if byClientID[r.name] && !slices.Equal(ids[0], ids[1]) {
					t.Errorf("%s: the shuffle changed the accepted clients from %v to %v", where, ids[0], ids[1])
				}
				if mal[0] != mal[1] {
					t.Errorf("%s: %d malicious accepted in order, %d shuffled", where, mal[0], mal[1])
				}
				if d := vec.SqDist(outs[0], outs[1]); d > 1e-18 {
					t.Errorf("%s: the shuffle moved the aggregate by %g", where, d)
				}
			}
		}
	}
}

// TestBulyanSelectionIgnoresOrder: with F = 2, ten updates and four
// mutually distant outliers, Bulyan's last pick scores one neighbour, so
// the last benign update and its nearest outlier tie exactly. The tie must
// go to the benign update whichever slot either holds.
func TestBulyanSelectionIgnoresOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var vs [][]float64
		var mal []bool
		for i := 0; i < 10; i++ {
			v := make([]float64, 50)
			for d := range v {
				if i < 4 {
					v[d] = rng.Float64()*2 - 1 // random weights
				} else {
					v[d] = rng.NormFloat64() * 0.01
				}
			}
			vs = append(vs, v)
			mal = append(mal, i < 4)
		}
		for _, perm := range [][]int{rng.Perm(10), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0}} {
			pv, pm := make([][]float64, 10), make([]bool, 10)
			for i, p := range perm {
				pv[i], pm[i] = vs[p], mal[p]
			}
			_, sel, err := (&Bulyan{F: 2}).Aggregate(nil, mkUpdates(pv, pm))
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range sel.Accepted {
				if pm[idx] {
					t.Fatalf("seed %d, order %v: Bulyan accepted outlier %d", seed, perm, perm[idx])
				}
			}
		}
	}
}

// TestBulyanTrimsCoordinateOutliers checks stage 2: even among selected
// updates, per-coordinate extremes are discarded.
func TestBulyanStage2(t *testing.T) {
	// 5 updates, F=1: theta=3, beta=1 → per coordinate, the single value
	// closest to the median of the selected three.
	us := mkUpdates([][]float64{{0}, {0.1}, {0.2}, {5}, {-5}}, nil)
	got, sel, err := (&Bulyan{F: 1}).Aggregate(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Accepted) != 3 {
		t.Fatalf("selected %d, want 3", len(sel.Accepted))
	}
	if math.Abs(got[0]-0.1) > 0.11 {
		t.Fatalf("Bulyan = %v, want ≈0.1", got[0])
	}
}
