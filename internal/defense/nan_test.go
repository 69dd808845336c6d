package defense_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/persist"
	"repro/internal/population"
)

// TestKrumFamilyRejectsNaNUpdate: one update with a NaN coordinate among
// nine finite ones has NaN distances to every other, which rank as +Inf. So
// no Krum-family rule accepts it, the aggregate stays finite, and every
// finite update keeps a finite score that its audit record carries through
// the JSON journal. Ranking NaN first (sort.Float64s) made every Krum score
// NaN: mKrum, Bulyan and the hierarchy then accepted the NaN update, and
// Krum's all-NaN scores hung the collector's detection sweep.
func TestKrumFamilyRejectsNaNUpdate(t *testing.T) {
	const n, dim, bad = 10, 6, 4
	rng := rand.New(rand.NewSource(5))
	updates := make([]fl.Update, n)
	for i := range updates {
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.NormFloat64()
		}
		if i == bad {
			w[dim/2] = math.NaN()
		}
		updates[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 10, Malicious: i == bad}
	}
	global := make([]float64, dim)
	rules := map[string]func() fl.Aggregator{
		"hier-mkrum": func() fl.Aggregator {
			return &population.Hierarchical{Groups: 2, Group: &defense.MultiKrum{F: 1}, Server: &defense.MultiKrum{F: 1}}
		},
	}
	for _, name := range []string{"krum", "mkrum", "bulyan"} {
		rules[name] = func() fl.Aggregator {
			a, err := defense.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	for name, rule := range rules {
		t.Run(name, func(t *testing.T) {
			agg, sel, err := rule().Aggregate(global, updates)
			if err != nil {
				t.Fatal(err)
			}
			if !sel.Known() || slices.Contains(sel.Accepted, bad) {
				t.Errorf("accepted %v, want a selection without the NaN update %d", sel.Accepted, bad)
			}
			for i, v := range agg {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("aggregate coordinate %d is %v", i, v)
				}
			}
			if sel.Scores != nil {
				for i, s := range sel.Scores {
					if i != bad && (math.IsNaN(s) || math.IsInf(s, 0)) {
						t.Errorf("finite update %d scores %v", i, s)
					}
				}
			}

			path := filepath.Join(t.TempDir(), "audit.jsonl")
			col, err := forensics.NewCollector(forensics.Options{Defense: name, AuditPath: path})
			if err != nil {
				t.Fatal(err)
			}
			col.ObserveAggregation(0, global, updates, sel)
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := persist.ReadEntries(path)
			if err != nil {
				t.Fatal(err)
			}
			run, err := forensics.AuditRun(entries, name)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Rounds) != 1 || len(run.Rounds[0].Audit.Records) != n {
				t.Fatalf("journal holds %d rounds, want 1 with %d records", len(run.Rounds), n)
			}
			for i, rec := range run.Rounds[0].Audit.Records {
				if rec.Accepted != slices.Contains(sel.Accepted, i) {
					t.Errorf("record %d: accepted %v in the journal, %v in the selection", i, rec.Accepted, !rec.Accepted)
				}
				if sel.Scores != nil && i != bad && rec.Score == nil {
					t.Errorf("record %d: finite update has no score in the journal", i)
				}
			}
		})
	}
}
