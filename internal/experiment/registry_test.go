package experiment

import (
	"crypto/sha256"
	"encoding/binary"
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

// TestGridKeysGolden pins each experiment's grid under the quick profile:
// a sha256 over the sorted v6 run keys of its cells, whose union is the
// result keys of a store `flbench -exp all` writes. A refactor that moves
// one cell orphans every stored sweep of that experiment, so a change here
// must be deliberate.
func TestGridKeysGolden(t *testing.T) {
	want := map[string]string{
		"table2":          "4a149a425980b25aa3b06349dfd15124239df4380b26d8debc7991adbf0a9a87",
		"fig4":            "e3f4f1a9a8b6aab17a0decefa0b6025c69e37330883c2168805823a6254a81c6",
		"fig5":            "c5966644b848e01394176851a418d6d0b259d527fce68b899cc446b2d4f52471",
		"fig6":            "f32e01a23996192ce2d12e9c1e010556d5b406d1eebac87a48ef18979123110d",
		"fig7":            "0a0dee8d4a117f075ebda1e00d304dda15339cf4039e67febe5631c43e93aaea",
		"table3":          "a051725fa775d8e46a94488595bdfa8bd91dd65686f45d955c1f3f70142b255a",
		"table4":          "be520f58e6dd8f6b8e60ed2f3ddf48220aaa8620134b916c8bfb64bb79731f6d",
		"fig8":            "b1dfb3176710551a9aeeb01f326efbe3dd1e5ff9b0f5a8c851afd128bb088780",
		"fig9":            "2938aa5d5846fc0b895ce63d425800a5125e7ddc7b534a770373ddd8ed2aa480",
		"fig10":           "e64634038ca193b27c18e269679eec8421198fbeee93b12210ad78b664609665",
		"randomweights":   "2a8b78d4511a3ad36348637d055e01d85e89e296156f9032d629ada4a331163b",
		"samplesize":      "991353757dafaf63dee57916550d44aee0f866cd1f39b8e47c8777f40a5b5af7",
		"sybil":           "30660d620e5883dc7e28e689fc757c279ec14812507d42cb752d867d2126b087",
		"adaptivealpha":   "4e11ad900c2be2d0075300b5efefdf7cacb66907cf7d4cf83764be818ed3cd4a",
		"participation":   "123efa57fd2a270a84e1fe9889b0b7b74fd37156ee8c638b17ea08cee5ea42a6",
		"productionscale": "659061b169b88a9cb00d3f4cb0f03d7d654b70c75afe068ea8da4eec85f6227e",
		"detection":       "85f8b6077f20c72f1a19128f44ab950ac726b4854d8b3b4ea1559d7c4d2d2795",
		"compression":     "4d12c74bcdd41e70fea8a034e8b333a5837b3f64d2fc4aa3494d106c4da2a139",
	}
	p := QuickProfile()
	for _, e := range All() {
		var keys []string
		for _, cfg := range e.Grid(p) {
			key, err := runKey(cfg)
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
