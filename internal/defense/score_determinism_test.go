package defense

// Audit-reproducibility satellite: the exported score vectors (the
// forensics ROC inputs) of FoolsGold and the Krum family must be
// bit-identical at any tensor worker count, so fixed-seed audit journals
// reproduce exactly. The cosine/distance matrices fan rows out over the
// worker pool with a fixed per-element accumulation order; these tests pin
// that property at the Selection seam.

import (
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/tensor"
)

func scoreFixture(seed int64) []fl.Update {
	rng := rand.New(rand.NewSource(seed))
	var updates []fl.Update
	for i := 0; i < 12; i++ {
		w := make([]float64, 400)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		updates = append(updates, fl.Update{ClientID: i, Weights: w, NumSamples: 10})
	}
	// Two colluding near-duplicates so FoolsGold's pardoning path runs.
	dup := make([]float64, 400)
	copy(dup, updates[0].Weights)
	dup[0] += 1e-9
	updates = append(updates, fl.Update{ClientID: 12, Weights: dup, NumSamples: 10, Malicious: true})
	return updates
}

func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := tensor.Workers()
	defer tensor.SetWorkers(prev)
	tensor.SetWorkers(n)
	fn()
}

func foolsGoldScores(t *testing.T, workers, rounds int) [][]float64 {
	t.Helper()
	var out [][]float64
	withWorkers(t, workers, func() {
		fg := NewFoolsGold(1)
		global := make([]float64, 400)
		for r := 0; r < rounds; r++ {
			next, sel, err := fg.Aggregate(global, scoreFixture(int64(100+r)))
			if err != nil {
				t.Fatal(err)
			}
			if sel.ScoreName != "foolsgold-weight" {
				t.Fatalf("score name %q", sel.ScoreName)
			}
			out = append(out, sel.Scores)
			global = next
		}
	})
	return out
}

func TestFoolsGoldScoresWorkerInvariant(t *testing.T) {
	one := foolsGoldScores(t, 1, 3)
	eight := foolsGoldScores(t, 8, 3)
	for r := range one {
		for i := range one[r] {
			if one[r][i] != eight[r][i] {
				t.Fatalf("round %d score %d differs across worker counts: %v vs %v",
					r, i, one[r][i], eight[r][i])
			}
		}
	}
}

func TestKrumScoresWorkerInvariant(t *testing.T) {
	updates := scoreFixture(7)
	var one, eight fl.Selection
	withWorkers(t, 1, func() {
		var err error
		_, one, err = (&MultiKrum{F: 2}).Aggregate(nil, updates)
		if err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		_, eight, err = (&MultiKrum{F: 2}).Aggregate(nil, updates)
		if err != nil {
			t.Fatal(err)
		}
	})
	if one.ScoreName != "neg-krum-distance" || len(one.Scores) != len(updates) {
		t.Fatalf("missing Krum scores: %d (%q)", len(one.Scores), one.ScoreName)
	}
	for i := range one.Scores {
		if one.Scores[i] != eight.Scores[i] {
			t.Fatalf("score %d differs across worker counts: %v vs %v", i, one.Scores[i], eight.Scores[i])
		}
	}
	for i := range one.Accepted {
		if one.Accepted[i] != eight.Accepted[i] {
			t.Fatal("selection order differs across worker counts")
		}
	}
}
