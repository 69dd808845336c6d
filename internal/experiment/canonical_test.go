package experiment

import (
	"fmt"
	"testing"
)

// canonicalCells are the benchmark's 23 canonical cells at seed 1, as the
// paper_k10 and population_100k workloads of the bench module build them
// (paperCells and populationCells at pass 0): the 17 cells of the paper's
// Table II shape, then the 6 cells of the lazy 100k-client population. Cell
// i runs at seed 1000+i.
func canonicalCells() []Config {
	var cells []Config
	paper := func(ds, attack, defense string) {
		c := Config{
			Dataset: ds, Attack: attack, Defense: defense, Beta: 0.5, Seed: int64(1000 + len(cells)),
			TotalClients: 100, PerRound: 10, Rounds: 4, EvalLimit: 320, SampleCount: 20, Parallel: true,
		}
		if attack != "none" {
			c.AttackerFrac = 0.2
		}
		cells = append(cells, c)
	}
	for _, def := range []string{"mkrum", "bulyan", "trmean", "median"} {
		paper("fashion-sim", "dfa-r", def)
		paper("fashion-sim", "dfa-g", def)
	}
	for _, def := range []string{"mkrum", "bulyan"} {
		paper("cifar-sim", "dfa-r", def)
		paper("cifar-sim", "dfa-g", def)
	}
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		paper(ds, "minmax", "mkrum")
		paper(ds, "none", "fedavg")
	}
	paper("fashion-sim", "dfa-g", "refd")
	for i, groups := range []int{0, 0, 0, 10, 10, 10} {
		c := Config{
			Dataset: "fashion-sim", Attack: []string{"dfa-r", "minmax", "labelflip"}[i%3], Defense: "mkrum", Beta: 0.5,
			Seed: int64(1000 + i), TotalClients: 100000, PerRound: 100, Rounds: 12, EvalLimit: 320, SampleCount: 20,
			Parallel: true, Population: "virtual", Placement: "scatter", AttackerFrac: 0.01, Groups: groups, FProxy: 10,
		}
		if groups > 0 {
			c.FProxy = 2
		}
		cells = append(cells, c)
	}
	return cells
}

// TestCanonicalDigests pins the final global model (Outcome.Digest) of the
// 23 canonical cells. Every kernel a cell runs sums in one order and rounds
// the same way on every build, so the SIMD and purego builds check the same
// values; a change that moves a value moves it on purpose, and says so.
func TestCanonicalDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("23 trained cells under the race detector take minutes; the default and purego legs pin them")
	}
	want := []string{
		// paper_k10
		"ae5900b223707c49", "854bff709fef9f66", "127f6f38c6fd0f45", "6f4ea2b346b9abca",
		"249c8b050bf783ec", "9741b1f4175d5431", "335c82002e1d5e97", "5103d9d9d09ebe4c",
		"018ce0141bbf6703", "77d7fe42bb7a90c7", "9866dd3a33df716c", "8096580b92b8fd65",
		"5908956caaaf97cc", "5d25ef43b1f0a087", "aee4dab24ff79273", "578229ec539873e5",
		"2a92c576e862625a",
		// population_100k: flat, then 10 groups
		"93ff352ed408ddd4", "9a576b698d0ecda0", "ca2bc8554b8d6087",
		"0da024d0159bf082", "ac89f011a6e74436", "fb458c980360c89c",
	}
	for i, cfg := range canonicalCells() {
		name := fmt.Sprintf("%s/%s/%s", cfg.Dataset, cfg.Attack, cfg.Defense)
		if cfg.Population != "" {
			name += fmt.Sprintf("/pop/groups=%d", cfg.Groups)
		}
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Digest != want[i] {
			t.Errorf("%s (seed %d): digest %s, want %s", name, cfg.Seed, out.Digest, want[i])
		}
	}
}
