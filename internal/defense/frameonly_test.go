package defense_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/nn"
	"repro/internal/population"
)

// TestFrameOnlyUpdatesMatchReconstructed is the differential oracle of the
// frame-only contract: every consumer of a round's updates gives the same
// bits whether a compressed update arrives as its frame alone (Weights nil,
// as the flnet decoder and the engine's encode step hand it over) or with
// Weights set to the frame's reconstruction. A consumer that read a nil
// Weights panics or diverges here. Two rounds per codec, so the stateful
// rules (FoolsGold's history, AdaptiveREFD's α) are compared on their
// second call too.
func TestFrameOnlyUpdatesMatchReconstructed(t *testing.T) {
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 21)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	ref, err := core.BalancedReference(test, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n, f = 10, 2
	rules := []rule{
		{"refd", func(t *testing.T) fl.Aggregator {
			r, err := core.NewREFD(ref, newModel, 1, f)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"refd-adaptive", func(t *testing.T) fl.Aggregator {
			r, err := core.NewAdaptiveREFD(ref, newModel, f, 0.25, 4)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"hier(mkrum/mkrum)", func(*testing.T) fl.Aggregator {
			return &population.Hierarchical{Groups: 3, Group: &defense.MultiKrum{F: 1}, Server: &defense.MultiKrum{}}
		}},
	}
	for _, name := range []string{"fedavg", "median", "trmean", "krum", "mkrum", "bulyan", "foolsgold"} {
		rules = append(rules, rule{name, func(t *testing.T) fl.Aggregator {
			a, err := defense.ByName(name, f)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}})
	}

	computesMatrix := map[string]bool{"krum": true, "mkrum": true, "bulyan": true, "hier(mkrum/mkrum)": true}

	for _, token := range []string{"int8", "int8,topk=0.1,ef", "fp16", "raw"} {
		cs, err := codec.ParseSpec(token)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(token, func(t *testing.T) {
			frameOnly := make([]fl.Aggregator, len(rules))
			dense := make([]fl.Aggregator, len(rules))
			for i, r := range rules {
				frameOnly[i], dense[i] = r.make(t), r.make(t)
			}
			enc := codec.NewEncoder(cs)
			rng := rand.New(rand.NewSource(9))
			global := newModel(rng).WeightVector()
			for round := 0; round < 2; round++ {
				framed := make([]fl.Update, n)
				full := make([]fl.Update, n)
				for c := range framed {
					std := 0.02
					if c >= n-f {
						std = 0.2
					}
					w := make([]float64, len(global))
					for j := range w {
						w[j] = global[j] + std*rng.NormFloat64()
					}
					fr := enc.Encode(c, round, global, w)
					framed[c] = fl.Update{ClientID: c, NumSamples: 10 + c, Malicious: c >= n-f, Frame: fr}
					full[c] = framed[c]
					full[c].Weights = fr.Reconstruct(global)
				}
				var mkrumDist [][]float64
				for i, r := range rules {
					got, gotSel, err := frameOnly[i].Aggregate(global, framed)
					if err != nil {
						t.Fatalf("round %d %s frame-only: %v", round, r.name, err)
					}
					want, wantSel, err := dense[i].Aggregate(global, full)
					if err != nil {
						t.Fatalf("round %d %s reconstructed: %v", round, r.name, err)
					}
					sameBits(t, r.name, got, want)
					// The matrix's wall time is reported exactly by the rules
					// that compute one; it is observation only, so every
					// decision field is compared bit for bit without it.
					if (gotSel.DistanceNanos > 0) != computesMatrix[r.name] || (wantSel.DistanceNanos > 0) != computesMatrix[r.name] {
						t.Fatalf("round %d %s: DistanceNanos %d (frame-only), %d (reconstructed)", round, r.name, gotSel.DistanceNanos, wantSel.DistanceNanos)
					}
					gotSel.DistanceNanos, wantSel.DistanceNanos = 0, 0
					if !reflect.DeepEqual(gotSel, wantSel) {
						t.Fatalf("round %d %s: Selection differs\n frame-only:    %+v\n reconstructed: %+v", round, r.name, gotSel, wantSel)
					}
					if r.name == "mkrum" {
						mkrumDist = gotSel.Distances
					}
				}
				for _, dist := range [][][]float64{nil, mkrumDist} {
					got := forensics.Fingerprints(global, framed, dist)
					want := forensics.Fingerprints(global, full, dist)
					for c := range got {
						g, w := got[c], want[c]
						sameBits(t, "fingerprints", []float64{float64(g.L2), float64(g.CosMean), float64(g.MinNeighbor), float64(g.MedNeighbor)},
							[]float64{float64(w.L2), float64(w.CosMean), float64(w.MinNeighbor), float64(w.MedNeighbor)})
					}
				}
				global = full[0].Weights
			}
		})
	}
}

// rule names an aggregation rule and builds a fresh instance of it.
type rule struct {
	name string
	make func(t *testing.T) fl.Aggregator
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
