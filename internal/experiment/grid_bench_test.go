package experiment

import (
	"testing"
	"time"
)

// simulatedCellCost stands in for one federated run when benchmarking the
// scheduler itself rather than the training stack.
const simulatedCellCost = 2 * time.Millisecond

// BenchmarkRunGridScheduling measures the grid engine's wall-clock on a
// sweep with several distinct clean baselines. A baseline is one more cell
// of the drain, leased and run by whichever worker claims it, so with 4
// workers the 12 cells and 4 baselines complete in roughly
// ceil(16/4) x cost, and no worker waits on another's baseline.
func BenchmarkRunGridScheduling(b *testing.B) {
	var cfgs []Config
	for _, seed := range []int64{1, 2, 3, 4} { // four distinct baselines
		for _, atk := range []string{"lie", "fang", "minmax"} {
			cfg := tinyCfg(atk, "mkrum")
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner()
		r.runFn = func(cfg Config) (*Outcome, error) {
			time.Sleep(simulatedCellCost)
			return fakeRun(cfg)
		}
		if _, err := r.RunGrid(cfgs, 4); err != nil {
			b.Fatal(err)
		}
	}
}
