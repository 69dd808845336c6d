package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// claimCells returns the grid cells under p that c's row sides name, one
// per side; a side that matches no row or several is an error.
func claimCells(e Experiment, c Claim, p Profile) ([]Config, error) {
	var rows []*Outcome
	for _, cfg := range e.Grid(p) {
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
		rows = append(rows, &Outcome{Config: cfg})
	}
	var cells []Config
	for _, own := range []Cell{c.Hi, c.Lo} {
		if own == nil {
			continue
		}
		found := e.rows(c, own, rows)
		if len(found) != 1 {
			return nil, fmt.Errorf("%v matches %d rows", own, len(found))
		}
		cells = append(cells, found[0].Config)
	}
	if len(cells) == 0 {
		return nil, errors.New("both sides are constants")
	}
	return cells, nil
}

// TestVerdict pins how a claim reads and when it holds: a NaN metric and a
// side that names no row or several rows fail.
func TestVerdict(t *testing.T) {
	out := func(atk string, dprV float64) *Outcome {
		return &Outcome{Config: Config{Dataset: "fashion-sim", Attack: atk, Defense: "mkrum"}, DPR: dprV}
	}
	e := Experiment{Columns: []Column{colDataset, colDefense, colAttack, colDPR}}
	mk := Cell{"dataset": "fashion-sim", "defense": "mkrum"}
	for _, tc := range []struct {
		c     Claim
		outs  []*Outcome
		line  string
		holds bool
	}{
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Lo: Cell{"attack": "fang"}},
			[]*Outcome{out("dfa-r", 80), out("fang", 20)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) holds (80.00 > 20.00)", true},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Lo: Cell{"attack": "fang"}},
			[]*Outcome{out("dfa-r", math.NaN()), out("fang", 20)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) fails (N/A > 20.00)", false},
		{Claim{Metric: dpr, Shared: mk, Lo: Cell{"attack": "random"}, Bound: 1},
			[]*Outcome{out("random", 0)},
			"claim: DPR random < 1 (fashion-sim, mkrum) holds (0.00 < 1.00)", true},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Bound: 90},
			[]*Outcome{out("dfa-r", 80)},
			"claim: DPR dfa-r > 90 (fashion-sim, mkrum) fails (80.00 > 90.00)", false},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Bound: 10},
			[]*Outcome{out("dfa-r", 80), out("dfa-r", 80)},
			"claim: DPR dfa-r > 10 (fashion-sim, mkrum) fails (map[attack:dfa-r] matches 2 rows)", false},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"DPR%": "80.00"}, Bound: 10},
			[]*Outcome{out("dfa-r", 80)},
			"claim: DPR 80.00 > 10 (fashion-sim, mkrum) fails (map[DPR%:80.00] matches 0 rows)", false},
	} {
		line, holds := e.verdict(tc.c, tc.outs)
		if line != tc.line || holds != tc.holds {
			t.Errorf("verdict %q (holds %v), want %q (holds %v)", line, holds, tc.line, tc.holds)
		}
	}
	// A printed value may contain spaces.
	c := Claim{Metric: asr, Shared: Cell{"perturbation": "noise std 0.001"}, Hi: Cell{"attack": "dfa-r"}, Bound: 10}
	noisy := &Outcome{Config: Config{Attack: "dfa-r", PerturbStd: 1e-3}, ASR: 50}
	want := "claim: ASR dfa-r > 10 (noise std 0.001) holds (50.00 > 10.00)"
	if line, _ := sybil.verdict(c, []*Outcome{noisy}); line != want {
		t.Errorf("verdict %q, want %q", line, want)
	}
}

// TestGridKeysGolden pins each experiment's grid under the quick profile:
// a sha256 over the sorted run keys of its cells. The values were taken
// from a store written by `flbench -exp all` before the grids became data,
// whose 275 result keys are exactly the union of these grids. A refactor
// that moves one cell orphans every stored sweep of that experiment, so a
// change here must be deliberate.
func TestGridKeysGolden(t *testing.T) {
	want := map[string]string{
		"table2":          "7a1bbc327d92e3a0270cddbd63d2792e2b4114c4af77dcd90ffaaf44a7e8383d",
		"fig4":            "5fa529fb163524b3cf9c25733d0822fe0bd78caadcdd7c18f69f8c0620f2e515",
		"fig5":            "0994393f2168529aa7ba764ae35489466bfe45dcb79ec6fd670a432795a18b7f",
		"fig6":            "9e4aa4b55aaa8bdf5a1944b738be440594026c6552b7155d61a41f369c012087",
		"fig7":            "c0ca5b20d64d6b791e08e9452a47690317a695fd2e0084031f4fc21e4089bc62",
		"table3":          "b0ed178e0d471ecc7256dd21ea4bc730ca11736d5e22e1408234c2acd44415d3",
		"table4":          "5efef7b6ce9460f9130d81ba5b1f74a4535b7be26645bcfa0a34a664435314a8",
		"fig8":            "f671dccf330bedd91033c95d98b1d86c52e8fb0198890ba44cd903fb8f65e0d9",
		"fig9":            "6d24cd4544856d54aaab6d977f6685eb558e60c5341666d73926081638d193eb",
		"fig10":           "57de995713f2c537261e0f014c56f5961f1b5dc3c452265886d51bdad7fc435b",
		"randomweights":   "5160f2a56902c6b9f4ecafdb3e871e5b9231e1e329f0101eafec42a8a30b10bc",
		"samplesize":      "43294b96fc094e3c168371a92efd39ca3a405c628e448bf7af5c06fa98961c32",
		"sybil":           "27f51bc4a928beac74fc92f347e77656c788d53ca08a89568c5c4966a3ed90c7",
		"adaptivealpha":   "8faee9182922c98e71a1d2a6d926350edd2d6a250ce1aab238c961fd6c251f62",
		"participation":   "f53e2cb21db3011f32932d5521dabcc9cc25b138233f5026c2f403c1529cfb9f",
		"productionscale": "7390a978db7fac34a9083c995eb7f23c2a0eee3d558dc64886c89495f5822b5d",
		"detection":       "312af83a424cef86c9d981df545253811a70145ab7c08c2b5660918bfa923ad4",
		"compression":     "c15ebdc3005a48ce4bbec6165ca7486d33faa48d7f0f096b280b706eafb045c8",
	}
	p := QuickProfile()
	for _, e := range All() {
		var keys []string
		for _, cfg := range e.Grid(p) {
			key, err := runKey(cfg, p.SeedCount)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		sort.Strings(keys)
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: grid keys hash %s, want %s", e.ID, got, want[e.ID])
		}
	}
}

// claimsProfile is the small profile TestPaperClaims checks the claims at:
// three seeds, so no verdict rests on one seed's luck.
var claimsProfile = Profile{Name: "claims", Rounds: 8, EvalLimit: 250, SampleCount: 10, SeedCount: 3}

// notReproduced are the registered claims whose verdict the seeds decide:
// they have held and failed at the quick profile. Their verdicts are
// printed but not required; the claims are not loosened until they pass.
var notReproduced = map[string]string{
	// Table III holds by under four points (quick 39.59 > 37.96,
	// claimsProfile 47.44 > 43.87) and has failed at quick (19.61 vs
	// 37.65): too seed-sensitive to call reproduced.
	"claim: ASR trained > static (fashion-sim, dfa-g, mkrum)": "holds by under four points",
	// §III-B. A round that selects 5 of its 10 clients from the attackers
	// makes Bulyan, which keeps 6, accept one, and one acceptance lifts the
	// 3-seed mean above 1, so the verdict is whether a seed draws such a
	// round: it holds for 55 of the seed triples (s, s+1000003, s+2000006),
	// s = 1..100. The paper itself reports random weights passing mKrum
	// 2.62%/6.57% of the time.
	"claim: DPR bulyan < 1 (fashion-sim)": "fails at quick (6.67 vs 1) and claimsProfile (3.33 vs 1)",
}

// TestPaperClaims runs the cells every registered claim names at
// claimsProfile and requires each verdict to hold. -v prints the verdicts.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the claims' cells")
	}
	type check struct {
		e     Experiment
		c     Claim
		cells []int // indices into cfgs
	}
	var (
		checks    []check
		cfgs      []Config
		index     = map[string]int{}
		artifacts = map[string]bool{}
	)
	for _, e := range All() {
		for _, c := range e.Claims {
			cells, err := claimCells(e, c, claimsProfile)
			if err != nil {
				t.Fatalf("%s %s: %v", e.ID, e.describe(c), err)
			}
			ch := check{e: e, c: c}
			for _, cfg := range cells {
				key, err := runKey(cfg, claimsProfile.SeedCount)
				if err != nil {
					t.Fatal(err)
				}
				i, ok := index[key]
				if !ok {
					i = len(cfgs)
					index[key] = i
					cfgs = append(cfgs, cfg)
				}
				ch.cells = append(ch.cells, i)
			}
			checks = append(checks, ch)
			if _, ok := notReproduced[e.describe(c)]; !ok {
				artifacts[e.ID] = true
			}
		}
	}
	if len(artifacts) < 5 {
		t.Fatalf("claims from %d artifacts, want at least 5", len(artifacts))
	}
	r := NewRunner()
	r.AverageSeeds = claimsProfile.SeedCount
	outs, err := r.RunGrid(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range checks {
		var mine []*Outcome
		for _, i := range ch.cells {
			mine = append(mine, outs[i])
		}
		line, holds := ch.e.verdict(ch.c, mine)
		switch why, excused := notReproduced[ch.e.describe(ch.c)]; {
		case excused:
			t.Logf("%s: %s [not required: %s]", ch.e.ID, line, why)
		case !holds:
			t.Errorf("%s: %s", ch.e.ID, line)
		default:
			t.Logf("%s: %s", ch.e.ID, line)
		}
	}
}
