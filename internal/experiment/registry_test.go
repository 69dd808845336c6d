package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// claimCells returns the grid cells under p that c's row sides name, one
// per side; a side that matches no row or several is an error.
func claimCells(e Experiment, c Claim, p Profile) ([]Config, error) {
	var rows [][]*Outcome
	for _, cfg := range e.Grid(p) {
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
		rows = append(rows, []*Outcome{{Config: cfg}})
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
		cells = append(cells, found[0][0].Config)
	}
	if len(cells) == 0 {
		return nil, errors.New("both sides are constants")
	}
	return cells, nil
}

// TestVerdict pins how a claim reads and when the sign test calls it: a
// NaN metric loses its seed, a tie leaves the count, and a side that names
// no row or several rows fails.
func TestVerdict(t *testing.T) {
	nan := math.NaN()
	// row is one attack's outcomes, one per DPR value in seed order.
	row := func(atk string, dprs ...float64) []*Outcome {
		var seeds []*Outcome
		for _, v := range dprs {
			seeds = append(seeds, &Outcome{Config: Config{Dataset: "fashion-sim", Attack: atk, Defense: "mkrum"}, DPR: v})
		}
		return seeds
	}
	ten := func(v float64) []float64 { return []float64{v, v, v, v, v, v, v, v, v, v} }
	e := Experiment{Columns: []Column{colDataset, colDefense, colAttack, colDPR}}
	mk := Cell{"dataset": "fashion-sim", "defense": "mkrum"}
	dfaVsFang := Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Lo: Cell{"attack": "fang"}}
	for _, tc := range []struct {
		c     Claim
		cells [][]*Outcome
		line  string
		call  string
	}{
		{dfaVsFang, [][]*Outcome{row("dfa-r", ten(80)...), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) holds (10/10 seeds, median effect 60.00 [60.00, 60.00])", "holds"},
		// 9 of 10 wins: p = 0.0107.
		{dfaVsFang, [][]*Outcome{row("dfa-r", 80, 80, 80, 80, 80, 80, 80, 80, 80, 10), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) holds (9/10 seeds, median effect 60.00 [60.00, 60.00])", "holds"},
		// 8 of 10 wins: p = 0.0547.
		{dfaVsFang, [][]*Outcome{row("dfa-r", 80, 80, 80, 80, 80, 80, 80, 80, 10, 10), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) undecided (8/10 seeds, median effect 60.00 [42.50, 60.00])", "undecided"},
		// Five ties leave five untied seeds, all won: p = 1/32.
		{dfaVsFang, [][]*Outcome{row("dfa-r", 80, 80, 80, 80, 80, 20, 20, 20, 20, 20), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) holds (5/10 seeds, median effect 30.00 [0.00, 60.00])", "holds"},
		{dfaVsFang, [][]*Outcome{row("dfa-r", ten(20)...), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) undecided (0/10 seeds, median effect 0.00 [0.00, 0.00])", "undecided"},
		{dfaVsFang, [][]*Outcome{row("dfa-r", ten(nan)...), row("fang", ten(20)...)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) fails (0/10 seeds, median effect N/A [N/A, N/A])", "fails"},
		// One seed, the quick profile's, can decide nothing.
		{dfaVsFang, [][]*Outcome{row("dfa-r", 80), row("fang", 20)},
			"claim: DPR dfa-r > fang (fashion-sim, mkrum) undecided (1/1 seeds, median effect 60.00 [60.00, 60.00])", "undecided"},
		{Claim{Metric: dpr, Shared: mk, Lo: Cell{"attack": "random"}, Bound: 1}, [][]*Outcome{row("random", ten(0)...)},
			"claim: DPR random < 1 (fashion-sim, mkrum) holds (10/10 seeds, median effect 1.00 [1.00, 1.00])", "holds"},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Bound: 90}, [][]*Outcome{row("dfa-r", ten(80)...)},
			"claim: DPR dfa-r > 90 (fashion-sim, mkrum) fails (0/10 seeds, median effect -10.00 [-10.00, -10.00])", "fails"},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"attack": "dfa-r"}, Bound: 10}, [][]*Outcome{row("dfa-r", 80), row("dfa-r", 80)},
			"claim: DPR dfa-r > 10 (fashion-sim, mkrum) fails (map[attack:dfa-r] matches 2 rows)", "fails"},
		{Claim{Metric: dpr, Shared: mk, Hi: Cell{"DPR%": "80.00"}, Bound: 10}, [][]*Outcome{row("dfa-r", 80)},
			"claim: DPR 80.00 > 10 (fashion-sim, mkrum) fails (map[DPR%:80.00] matches 0 rows)", "fails"},
	} {
		line, call := e.verdict(tc.c, tc.cells)
		if line != tc.line || call != tc.call {
			t.Errorf("verdict %q (%s), want %q (%s)", line, call, tc.line, tc.call)
		}
	}
	// A printed value may contain spaces.
	c := Claim{Metric: asr, Shared: Cell{"perturbation": "noise std 0.001"}, Hi: Cell{"attack": "dfa-r"}, Bound: 10}
	noisy := &Outcome{Config: Config{Attack: "dfa-r", PerturbStd: 1e-3}, ASR: 50}
	want := "claim: ASR dfa-r > 10 (noise std 0.001) undecided (1/1 seeds, median effect 40.00 [40.00, 40.00])"
	if line, _ := sybil.verdict(c, [][]*Outcome{{noisy}}); line != want {
		t.Errorf("verdict %q, want %q", line, want)
	}
}

// TestGridKeysGolden pins each experiment's drain under the quick profile:
// a sha256 over the sorted, distinct v7 run keys of its cells and their
// clean baselines, whose union is the result keys of a store `flbench -exp
// all` writes. A refactor that moves one cell orphans every stored sweep of
// that experiment, so a change here must be deliberate.
func TestGridKeysGolden(t *testing.T) {
	want := map[string]string{
		"table2":          "80e2850424a028b7053850d951710d6ae6ef137ac28c6e19fbb2e64fe035b017",
		"fig4":            "8ec76aba0d0fcfe36faa4ebb4555a04a0b62d7962e4ee8af9fa8b2768a2458ed",
		"fig5":            "9312ed3e62bb16da8fc6e48eba390a98ff7103ae69a86840405eb3299aaf7ee0",
		"fig6":            "9fcaccfe0b7096b77edca77aade4e433b79a04bee891a7e22a851f772538a8fd",
		"fig7":            "a95db8e986265bec2ccd0137e2f1cc6fd469176c6e0e8c97e40bcd34a2029bf0",
		"table3":          "0e0ae512aaad1a2cd026f4077879b992df17f286863c38d7e2f84231c5260fee",
		"table4":          "bb5eacaf9a887b35e4ce71d1ec2a141d922b40783f1f3ba950bcd9fad8499b96",
		"fig8":            "ef6f684f8676fc95f3221934d6627686c57c740beb45d635560971319e8fcecb",
		"fig9":            "b4f86b772933d78ff649eedc7d0ee1d0426013fb2c630f7776042b7a59d6cf07",
		"fig10":           "5ed918665b5112761ac0e2bf3cb5baeee33aa618a10b8e26c84b45fe6feb4285",
		"randomweights":   "2f29a7254936d96353d74af9fe88b23941e1757e098e9f73dbe614bdfa956bc9",
		"samplesize":      "073afd624ca446b78b7f10011ba7464b29a67e9a8e320d09aac428600cc38410",
		"sybil":           "9edcbc6c4402de1c61d4fa12c44e7c81007b719c394fdd7f4ca2163d255e407f",
		"adaptivealpha":   "744533c432f56f7967c3a7f4c31b668eba20fc80c32ca1a76a09fe7d62639d68",
		"participation":   "807bb30f620bc2a46eb8131ceaabafd532e10883b1ec226ba8f15dcc8156fb05",
		"productionscale": "66f079ab35e0831835151225e447ec89e7b6cae710bde2d7d8cef151f4162736",
		"detection":       "2a4a1b8d2fab774ce0c82e10f0c18c9090ec05b24da795cfdd1799068a900fd9",
		"compression":     "302eccc9631e958308a1d34baba8a0a2b81ecf2e996f995a83eef6bc7a2a6d19",
	}
	p := QuickProfile()
	for _, e := range All() {
		var keys []string
		for _, cfg := range e.Grid(p) {
			keys = append(keys, runKeyOf(t, cfg), cleanKeyOf(t, cfg))
		}
		sort.Strings(keys)
		keys = slices.Compact(keys)
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: grid keys hash %s, want %s", e.ID, got, want[e.ID])
		}
	}
}

// claimsProfile is the small profile TestPaperClaims checks the claims at:
// ten seeds, so that the sign test can call a claim at α = 0.05 (nine wins
// of ten) and no verdict rests on one seed's luck. The profile, the seed
// count and α are fixed; none is tuned to a verdict.
var claimsProfile = Profile{Name: "claims", Rounds: 8, EvalLimit: 250, SampleCount: 10, SeedCount: 10}

// notReproduced are the registered claims the sign test does not call
// holds at claimsProfile. Their verdicts are printed but not required, and
// the claims are not loosened until they pass; an excuse whose claim holds
// fails the test, so the list stays exactly the claims not reproduced.
var notReproduced = map[string]string{
	// Table III: trained synthesis wins 5 of 10 seeds, by a median of
	// 1.22 ASR points [-1.82, 10.28], so the seeds do not order the two.
	"claim: ASR trained > static (fashion-sim, dfa-g, mkrum)": "undecided at 5/10 seeds",
	// §III-B. A round that selects 5 of its 10 clients from the attackers
	// makes Bulyan, which keeps 6, accept one, and one acceptance lifts a
	// seed's DPR above 1: 2 of 10 seeds draw such a round (8/10, p =
	// 0.055). The paper itself reports random weights passing mKrum
	// 2.62%/6.57% of the time.
	"claim: DPR bulyan < 1 (fashion-sim)": "undecided at 8/10 seeds",
}

// meansPin is the SHA-256 over the Float64bits of CleanAcc, MaxAcc,
// FinalAcc, ASR, DPR and AccTimeline of every claim cell's three-seed
// mean, in cell order, as the runner that averaged seeds inside one cell
// computed them at claimsProfile's first three seeds: meanOf must keep the
// full profile's printed means bit-equal to those.
const meansPin = "3a15ee5f0e563dc236f2da114f758a81abf6f895a02caf4679b1b1cd66b24789"

// meansDigest hashes the fields meansPin covers.
func meansDigest(outs []*Outcome) string {
	h := sha256.New()
	put := func(v float64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	for _, o := range outs {
		for _, v := range []float64{o.CleanAcc, o.MaxAcc, o.FinalAcc, o.ASR, o.DPR} {
			put(v)
		}
		for _, v := range o.AccTimeline {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPaperClaims runs the cells every registered claim names at
// claimsProfile, one cell per seed, and requires each verdict to hold. -v
// prints the verdicts.
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
				key, err := runKey(cfg)
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
	seeds, err := NewRunner().runSeeds(cfgs, claimsProfile.SeedCount)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range checks {
		var mine [][]*Outcome
		for _, i := range ch.cells {
			mine = append(mine, seeds[i])
		}
		line, call := ch.e.verdict(ch.c, mine)
		switch why, excused := notReproduced[ch.e.describe(ch.c)]; {
		case excused && call == "holds":
			t.Errorf("%s: %s, but it is excused as not reproduced (%s)", ch.e.ID, line, why)
		case excused:
			t.Logf("%s: %s [not required: %s]", ch.e.ID, line, why)
		case call != "holds":
			t.Errorf("%s: %s", ch.e.ID, line)
		default:
			t.Logf("%s: %s", ch.e.ID, line)
		}
	}
	var means []*Outcome
	for _, s := range seeds {
		means = append(means, meanOf(s[:3]))
	}
	if got := meansDigest(means); got != meansPin {
		t.Errorf("three-seed means hash %s, want %s", got, meansPin)
	}
}
