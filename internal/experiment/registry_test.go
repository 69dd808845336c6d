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
		"table2":          "0d3abb3586fc415e43440cc5eb921699052cada4910169719d88379edc474d07",
		"fig4":            "4af3629001b42d58d0b0401e93c37d99d664aecf119ecf96f4f6b361cd58664d",
		"fig5":            "cc50ef705445bf033440e568197e27bbcd6468645003dc961c51151ee9739f1c",
		"fig6":            "3f1e21acb4c181190eab5cbe423739eed2974cf05a02eb0b093bd077d4c5db47",
		"fig7":            "26f39d95d07191b87e3380793d0be380f0b27462f3569e502828f04e9c36aa15",
		"table3":          "b82a0b73fcd0fb510f7efa7ec73ca693d551d27009f5a38ceb08a0801e5f93f2",
		"table4":          "d4c5cbe64514c27855e6d04a19ab66a7ee850a16be961066ad038c09ce3c836d",
		"fig8":            "17757ff18e2b27437f9b6c2cd18855d6883f7c5530d3e21e549a450bb9ff1fd9",
		"fig9":            "49f18d020c4bb452d52b09dda2d1a7a03d92d055aa278d7e1ef66d18ef654a67",
		"fig10":           "9c3ebc22c622370d3585182b296bb5c64e1209727d008fcf6a714fdd8bbb149c",
		"randomweights":   "1b0dd6f7dbd8832388fa6aa52f08596d53bfd71ad5dbd71321c1d09db66dd2c4",
		"samplesize":      "10d4f2603f80cd8a3409ccc68f47a708a3cee088da32992db97289116c5d466c",
		"sybil":           "faff8b0bb1202ea22545eb6a3fe6e591b34e7b5e0b7afce52d3536111a0d724f",
		"adaptivealpha":   "5fd8c834af17b403d4f41987fe5b2576706459a3ff2b1bc0612287941b55be6c",
		"participation":   "58148a0e91b324cc204d9fd9a4943b2e5a7c38b3751556d0d5bfbb045457b463",
		"productionscale": "89ddbfc29bd98362fe308fad955ad91afe0a44ff4bf4a592e7a09305013de7bd",
		"detection":       "735d37be730a6fc096d83ec61c0a669b0cb8259ef135a8d27ccc7481bdb2a9f8",
		"compression":     "5419971fc750aec0b43b1d0bc8faef4e7e558d7d8dfe61094ab8b0bfc65b6783",
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

// notReproduced are the registered claims the quick profile does not
// reproduce. Their verdicts are printed but not required; the claims are
// not loosened until they pass.
var notReproduced = map[string]string{
	// Table III. At claimsProfile it holds by two points (38.00 > 35.94):
	// too seed-sensitive to call reproduced.
	"claim: ASR trained > static (fashion-sim, dfa-g, mkrum)": "fails at quick, seed 1: 19.61 vs 37.65",
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
