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
		"table2":          "92ad9582b031a7278bdf26f54c00d95f037f2ef956882b33c886a8accae9a96f",
		"fig4":            "3c0129927935760e75729391789f97ec821e1d2bd5bb218d3b0a80ac81118a0c",
		"fig5":            "27bcd21c5485ffbcb61cbb14a270d77af3e2de565dcf2b7f6e425943d9a64dd7",
		"fig6":            "3305e7c65a4ee19c7332b0a563f2cbd074b21487b57029d15f1507dac7c7207c",
		"fig7":            "fee1d828cf9cfa24a65a659428939181e6f48c80799cac793713e2e369e25f68",
		"table3":          "0fde8936aee91f34f49b478bd35d9947dd0c470c8438847faedc41c38814c7a9",
		"table4":          "09182bd1669ca06051478bcd9368b587a2b1a1e6241ccab535313882ceca6b81",
		"fig8":            "578db6ca8a72d4ab9a59c021e7a0d5aa99bf8e73b429816564a3ddaf56d65b9e",
		"fig9":            "503520dcabd92f15d658dc66a83689b7c2638ce4a11ff59b06f93f3f9758d09d",
		"fig10":           "dd9e116b7ca9726887160d1d9656cc56b51c73d7bb47548dd886cb3bd9a8933a",
		"randomweights":   "bd47a8cf0b86640663ef46294755a89393047a885797033fb84e949da6ec0db3",
		"samplesize":      "bb78d4c993cfec42a45219773bf21700ee1fe20ace7d1b4009c3aa599942ceb3",
		"sybil":           "dd43db7183d4197506b5ced9e538b3d25611bae486e6663f00f62b075a52a0e8",
		"adaptivealpha":   "a013b1aca85de3c86431346540adbfe906d171aaf87bc25d6feed75450bb9a64",
		"participation":   "e7d5564796bd12e174a6e2614673200c9eefb105478adc681efe331ad347ed64",
		"productionscale": "45254ef29fa679e656baa33d327c99c795ef1dbd4ddbe5aa3128ab7f9481de62",
		"detection":       "d1e0825b0ef6f01ddaa36db0d8dae57b5069b2b13e04fdd32c0dedc78172b748",
		"compression":     "4e122c7fd361e6c5469fe9651615236f170995192cada10386bef075179df38e",
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
