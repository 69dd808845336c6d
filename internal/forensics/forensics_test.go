package forensics

import (
	"math"
	"testing"

	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/vec"
)

func mkUpdates(mal []bool, vs ...[]float64) []fl.Update {
	us := make([]fl.Update, len(vs))
	for i, v := range vs {
		us[i] = fl.Update{ClientID: i, Weights: v, NumSamples: 10}
		if mal != nil {
			us[i].Malicious = mal[i]
		}
	}
	return us
}

func TestFingerprintsGeometry(t *testing.T) {
	global := []float64{0, 0}
	us := mkUpdates(nil,
		[]float64{1, 0},  // along the mean direction
		[]float64{2, 0},  // same direction, farther
		[]float64{-3, 0}, // flipped
	)
	fps := Fingerprints(global, us, nil)
	if len(fps) != 3 {
		t.Fatalf("got %d fingerprints", len(fps))
	}
	if fps[0].L2 != 1 || fps[1].L2 != 2 || fps[2].L2 != 3 {
		t.Fatalf("L2 = %v %v %v, want 1 2 3", fps[0].L2, fps[1].L2, fps[2].L2)
	}
	// Mean delta = (0, 0): all updates sum to (0,0), so CosMean is 0 by the
	// zero-norm guard.
	for i, fp := range fps {
		if fp.CosMean != 0 {
			t.Fatalf("update %d CosMean = %v, want 0 against zero mean", i, fp.CosMean)
		}
	}
	// Neighbour distances: |1−2| = 1 is 0's nearest; its median over {1, 4}
	// is sqrt((1+16)/2).
	if fps[0].MinNeighbor != 1 {
		t.Fatalf("MinNeighbor = %v, want 1", fps[0].MinNeighbor)
	}
	wantMed := math.Sqrt((1.0 + 16.0) / 2)
	if math.Abs(float64(fps[0].MedNeighbor)-wantMed) > 1e-12 {
		t.Fatalf("MedNeighbor = %v, want %v", fps[0].MedNeighbor, wantMed)
	}

	// A non-degenerate mean: drop the flipped update.
	us2 := us[:2]
	fps2 := Fingerprints(global, us2, nil)
	if math.Abs(float64(fps2[0].CosMean)-1) > 1e-12 || math.Abs(float64(fps2[1].CosMean)-1) > 1e-12 {
		t.Fatalf("aligned updates should have CosMean 1, got %v %v", fps2[0].CosMean, fps2[1].CosMean)
	}
}

func TestFingerprintsReuseDistanceMatrix(t *testing.T) {
	global := make([]float64, 5)
	us := mkUpdates(nil,
		[]float64{1, 2, 3, 4, 5},
		[]float64{5, 4, 3, 2, 1},
		[]float64{0, 1, 0, 1, 0},
		[]float64{2, 2, 2, 2, 2},
	)
	vs := make([][]float64, len(us))
	for i, u := range us {
		vs[i] = u.Weights
	}
	fresh := Fingerprints(global, us, nil)
	reused := Fingerprints(global, us, vec.SqDistMatrix(vs))
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("update %d: reused matrix changed the fingerprint: %+v vs %+v", i, fresh[i], reused[i])
		}
	}
	// A wrong-size matrix (stale geometry from another round) must be
	// ignored, not indexed out of range.
	bad := Fingerprints(global, us, vec.SqDistMatrix(vs[:2]))
	for i := range fresh {
		if fresh[i] != bad[i] {
			t.Fatalf("update %d: wrong-size matrix not recomputed", i)
		}
	}
}

// TestFingerprintsWorkerInvariant pins the audit-reproducibility contract:
// the parallel fan-out over updates never changes a bit of the output.
func TestFingerprintsWorkerInvariant(t *testing.T) {
	global := make([]float64, 64)
	var vs [][]float64
	x := 1.0
	for i := 0; i < 24; i++ {
		v := make([]float64, 64)
		for j := range v {
			x = math.Mod(x*997.13+float64(i+j), 17)
			v[j] = x
		}
		vs = append(vs, v)
	}
	us := mkUpdates(nil, vs...)
	prev := tensor.Workers()
	defer tensor.SetWorkers(prev)
	tensor.SetWorkers(1)
	one := Fingerprints(global, us, nil)
	tensor.SetWorkers(8)
	eight := Fingerprints(global, us, nil)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("update %d: fingerprints differ across worker counts: %+v vs %+v", i, one[i], eight[i])
		}
	}
}

func TestFingerprintsSingleUpdate(t *testing.T) {
	fps := Fingerprints([]float64{0}, mkUpdates(nil, []float64{3}), nil)
	if fps[0].L2 != 3 || fps[0].MinNeighbor != 0 || fps[0].MedNeighbor != 0 {
		t.Fatalf("single-update fingerprint = %+v", fps[0])
	}
	if got := Fingerprints(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty round should produce no fingerprints, got %d", len(got))
	}
}
