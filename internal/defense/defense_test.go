package defense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fl"
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

// Property: Krum-family selection is permutation-consistent — the same set
// of vectors yields the same selected *vectors* regardless of input order.
func TestMultiKrumPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		agg := &MultiKrum{F: 1}
		out1, _, err := agg.Aggregate(nil, mkUpdates(vs, nil))
		if err != nil {
			return false
		}
		perm := rng.Perm(n)
		shuffled := make([][]float64, n)
		for i, p := range perm {
			shuffled[i] = vs[p]
		}
		out2, _, err := agg.Aggregate(nil, mkUpdates(shuffled, nil))
		if err != nil {
			return false
		}
		return vec.SqDist(out1, out2) < 1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
