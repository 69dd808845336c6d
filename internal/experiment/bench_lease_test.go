package experiment

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// benchGrid is 12 distinct cells (6 attacks x 2 defenses) of the tiny
// pipeline shape.
func benchGrid() []Config {
	attacks := []string{"lie", "fang", "minmax", "minsum", "random", "signflip"}
	defenses := []string{"mkrum", "median"}
	var cfgs []Config
	for _, d := range defenses {
		for _, a := range attacks {
			cfgs = append(cfgs, tinyCfg(a, d))
		}
	}
	return cfgs
}

// BenchmarkLeasedGridDrain drains a 12-cell grid through N in-process
// "workers" — independent Runners over independently opened stores on one
// path, the same shape as N flbench processes sharing one -store. Each cell is
// a fixed 5ms sleep, so the benchmark is LATENCY-BOUND by construction: it
// measures how well the lease substrate (claim, renew, adopt, release,
// poll) overlaps waiting, not compute scaling. On a single-CPU machine a
// compute-bound grid cannot speed up with workers; sleeping cells can, and
// any shortfall from ideal N-fold scaling is coordination overhead.
func BenchmarkLeasedGridDrain(b *testing.B) {
	const cellWork = 5 * time.Millisecond
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfgs := benchGrid()
				path := filepath.Join(b.TempDir(), fmt.Sprintf("grid-%d.jsonl", i))
				runners := make([]*Runner, workers)
				for w := range runners {
					store, err := OpenStore(path, fmt.Sprintf("w%d", w))
					if err != nil {
						b.Fatal(err)
					}
					defer store.Close()
					r := NewRunner()
					r.Store = store
					r.runFn = func(cfg Config) (*Outcome, error) {
						time.Sleep(cellWork)
						return fakeRun(cfg)
					}
					fastLease(r)
					runners[w] = r
				}
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w, r := range runners {
					wg.Add(1)
					go func(w int, r *Runner) {
						defer wg.Done()
						_, errs[w] = r.RunGrid(cfgs, 1)
					}(w, r)
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkGridStoreOverhead prices the substrate itself: the same 12-cell
// grid with zero-cost cells, drained by one worker, with no store and with
// the run store. The delta is pure bookkeeping — journal appends, lease
// claim/release transactions, flock round-trips.
func BenchmarkGridStoreOverhead(b *testing.B) {
	run := func(b *testing.B, attach func(r *Runner, path string) error) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfgs := benchGrid()
			path := filepath.Join(b.TempDir(), fmt.Sprintf("grid-%d.jsonl", i))
			r := NewRunner()
			r.runFn = fakeRun
			if err := attach(r, path); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := r.RunGrid(cfgs, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("store=none", func(b *testing.B) {
		run(b, func(r *Runner, path string) error { return nil })
	})
	b.Run("store=shared", func(b *testing.B) {
		run(b, func(r *Runner, path string) error {
			store, err := OpenStore(path, "bench")
			if err != nil {
				return err
			}
			b.Cleanup(func() { _ = store.Close() })
			r.Store = store
			fastLease(r)
			return nil
		})
	})
}
