package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/fl"
	"repro/internal/telemetry"
)

// Runner executes configurations and caches the clean "no attack, no
// defense" accuracy baselines (the acc of Eq. 4), so that a grid of attacked
// runs over one dataset pays for its baseline only once. Baselines are
// deduplicated by a per-key singleflight latch: the first cell that needs a
// baseline computes it while cells with other (or no) baseline needs keep
// running — there is no serial warm-up phase.
type Runner struct {
	mu         sync.Mutex
	cleanCache map[string]*baselineCell
	// Store, when non-nil, records every completed grid cell and clean
	// baseline and adopts the ones already recorded — by an earlier, killed
	// run or by another process draining the same store right now — instead
	// of recomputing them. Nil runs every cell.
	Store *Store
	// Progress, when non-nil, receives one event per completed grid cell
	// (including cells replayed from the store). Events are delivered
	// serially; the callback does not need its own locking.
	Progress func(ProgressEvent)
	// Telemetry, when non-nil, instruments this worker's sweep: executed
	// cells (count, duration spans), lease claims/conflicts/reclaims, and
	// adopted cells. It also feeds the fleet fields of ProgressEvent. Pure
	// observation — scheduling and results are unaffected.
	Telemetry *telemetry.SweepTelemetry
	// runFn executes a single raw configuration; tests substitute it to
	// observe scheduling without paying for real training.
	runFn func(Config) (*Outcome, error)
	// leasePoll is how often a worker re-scans the store for results and
	// claimable cells when everything left is leased by another process;
	// leaseExpirePolls is how many consecutive polls must see a foreign
	// lease at an unchanged epoch before its holder is presumed dead (no
	// wall clock ever crosses a process boundary); leaseRenewEvery is the
	// heartbeat on held leases, comfortably shorter than their product.
	// NewRunner sets them; tests shorten them.
	leasePoll        time.Duration
	leaseExpirePolls int
	leaseRenewEvery  time.Duration
}

// baselineCell is the singleflight latch for one clean baseline: the first
// goroutine to arrive computes, everyone else waits on the Once.
type baselineCell struct {
	once sync.Once
	acc  float64
	err  error
}

// ProgressEvent reports the completion of one grid cell.
type ProgressEvent struct {
	// Done and Total count completed and scheduled cells.
	Done, Total int
	// Config identifies the cell, whether it succeeded or failed.
	Config Config
	// Skipped marks a cell replayed from the run store rather than executed.
	Skipped bool
	// Remote marks a cell completed by another process draining the same
	// store while this sweep was running (Skipped is false: the cell
	// finished during the sweep, it just wasn't ours).
	Remote bool
	// Outcome is the completed cell's result (nil when the cell failed).
	Outcome *Outcome
	// Err is the cell's failure, surfaced as it happens rather than only
	// in RunGrid's aggregate error after the sweep drains.
	Err error
	// Elapsed is the wall-clock time since the grid started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time as remaining cells times
	// the mean wall-clock per completed cell. Cells completed by other
	// worker processes count toward the rate — the remaining work is drained
	// by the whole fleet, so a single worker among N must not project N
	// times the true finish time. Zero when no cell has completed yet or the
	// grid is done.
	ETA time.Duration
	// WorkerCells, CellsPerMin and LeaseConflicts describe this worker's
	// own fleet contribution, read from the Runner's SweepTelemetry: cells
	// it executed (not adopted or replayed), its execution throughput over
	// the sweep so far, and claim attempts lost to live foreign leases. All
	// zero when Runner.Telemetry is nil.
	WorkerCells    int64
	CellsPerMin    float64
	LeaseConflicts int64
}

// NewRunner returns a Runner with an empty baseline cache.
func NewRunner() *Runner {
	return &Runner{
		cleanCache:       make(map[string]*baselineCell),
		runFn:            Run,
		leasePoll:        500 * time.Millisecond,
		leaseExpirePolls: 5,
		leaseRenewEvery:  time.Second,
	}
}

// Watch hands p to the first run this runner starts — its first cell — and
// to nothing else: baselines and every other cell run unwatched because
// nobody gives them a plane. It is for a runner that executes one cell
// (repro.RunConfigOpts); a grid's cells would race for the plane.
func (r *Runner) Watch(p *Plane) {
	var first sync.Once
	r.runFn = func(cfg Config) (*Outcome, error) {
		var watched *Plane
		first.Do(func() { watched = p })
		return run(cfg, watched)
	}
}

// CleanAccuracy returns the cached or freshly computed accuracy of cfg's
// clean baseline (cleanOf). Concurrent callers sharing a baseline block
// only each other: the first computes, the rest wait on its latch, and
// callers with different keys proceed independently.
func (r *Runner) CleanAccuracy(cfg Config) (float64, error) {
	clean, err := cleanOf(cfg)
	if err != nil {
		return 0, err
	}
	key, err := baselineKey(clean)
	if err != nil {
		return 0, err
	}

	r.mu.Lock()
	cell, ok := r.cleanCache[key]
	if !ok {
		cell = &baselineCell{}
		r.cleanCache[key] = cell
	}
	r.mu.Unlock()

	cell.once.Do(func() {
		cell.acc, cell.err = r.computeBaseline(key, clean)
	})
	if cell.err != nil {
		// Evict the failed cell so a later caller retries instead of
		// replaying a possibly transient error (e.g. a store write
		// failure) forever; successes stay cached.
		r.mu.Lock()
		if r.cleanCache[key] == cell {
			delete(r.cleanCache, key)
		}
		r.mu.Unlock()
	}
	return cell.acc, cell.err
}

// computeBaseline resolves one clean baseline behind CleanAccuracy's
// in-process latch: adopted when some process recorded it, else leased, so
// exactly one process computes it while the others poll for its record —
// the cross-process analogue of the latch.
func (r *Runner) computeBaseline(key string, clean Config) (float64, error) {
	var obs leaseObserver
	for {
		if err := r.Store.Refresh(); err != nil {
			return 0, fmt.Errorf("experiment: clean baseline store: %w", err)
		}
		out, mine, err := r.acquire(key, &obs)
		if err == nil && mine {
			out, err = r.runLeased(key, func() (*Outcome, error) { return r.runFn(clean) })
		}
		if err != nil {
			return 0, fmt.Errorf("experiment: clean baseline: %w", err)
		}
		if out != nil {
			return out.MaxAcc, nil
		}
		time.Sleep(r.leasePoll)
	}
}

// Run executes cfg and fills CleanAcc and ASR from the matching clean
// baseline.
func (r *Runner) Run(cfg Config) (*Outcome, error) {
	out, err := r.runFn(cfg)
	if err != nil {
		return nil, err
	}
	clean, err := r.CleanAccuracy(cfg)
	if err != nil {
		return nil, err
	}
	out.CleanAcc = clean
	out.ASR = fl.ASR(clean*100, out.MaxAcc*100)
	return out, nil
}

// seedStride spaces a config's seeds: seed i runs at cfg.Seed + i·seedStride.
const seedStride = 1000003

// runSeeds expands each config into n cells (n < 1 means 1) at the seeds
// cfg.Seed + i·seedStride, drains them all in one RunGrid, so a config's
// seeds run in parallel like any other cells, and returns each config's
// outcomes in seed order.
func (r *Runner) runSeeds(cfgs []Config, n int) ([][]*Outcome, error) {
	n = max(n, 1)
	cells := make([]Config, 0, len(cfgs)*n)
	for _, cfg := range cfgs {
		for i := range n {
			c := cfg
			c.Seed += int64(i) * seedStride
			cells = append(cells, c)
		}
	}
	outs, err := r.RunGrid(cells, 0)
	return slices.Collect(slices.Chunk(outs, n)), err
}

// progressTracker serializes ProgressEvent delivery and derives the ETA and
// the worker's fleet stats.
type progressTracker struct {
	mu       sync.Mutex
	cb       func(ProgressEvent)
	tel      *telemetry.SweepTelemetry
	total    int
	done     int
	executed int
	remote   int
	start    time.Time
}

func newProgressTracker(cb func(ProgressEvent), total int, tel *telemetry.SweepTelemetry) *progressTracker {
	if cb == nil {
		return nil
	}
	return &progressTracker{cb: cb, tel: tel, total: total, start: time.Now()}
}

func (p *progressTracker) report(cfg Config, out *Outcome, err error, skipped, remote bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	switch {
	case remote:
		p.remote++
	case !skipped:
		p.executed++
	}
	elapsed := time.Since(p.start)
	var eta time.Duration
	// The rate counts cells finished during this sweep by anyone — local
	// workers and other processes alike. elapsed/(executed+remote) is fleet
	// wall-clock per cell, which already amortizes all parallelism; cells
	// replayed at startup (skipped) predate the sweep and carry no rate
	// information.
	if remaining := p.total - p.done; remaining > 0 && p.executed+p.remote > 0 {
		perCell := float64(elapsed) / float64(p.executed+p.remote)
		eta = time.Duration(perCell * float64(remaining))
	}
	ev := ProgressEvent{
		Done:    p.done,
		Total:   p.total,
		Config:  cfg,
		Skipped: skipped,
		Remote:  remote,
		Outcome: out,
		Err:     err,
		Elapsed: elapsed,
		ETA:     eta,
	}
	if p.tel != nil {
		ev.WorkerCells = p.tel.Cells()
		ev.LeaseConflicts = p.tel.Conflicts()
		if mins := elapsed.Minutes(); mins > 0 {
			ev.CellsPerMin = float64(ev.WorkerCells) / mins
		}
	}
	p.cb(ev)
}

// cellName labels one grid cell's execution span on the sweep trace row.
func cellName(c Config) string {
	return c.Dataset + "/" + c.Attack + "/" + c.Defense
}

// RunGrid executes the configurations concurrently (bounded by workers;
// workers <= 0 uses GOMAXPROCS) and returns outcomes in input order. Clean
// baselines are deduplicated in-flight by CleanAccuracy's singleflight
// latch, so the grid starts on all cells immediately instead of prewarming
// baselines serially. Every cell is leased from the Store before it runs
// and recorded when it completes; cells the store already holds are
// returned without execution, so a killed sweep re-run against the same
// store completes only the remaining cells, and N processes on one store
// cover the grid exactly once between them. With a nil Store every claim
// succeeds at once.
func (r *Runner) RunGrid(cfgs []Config, workers int) ([]*Outcome, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Resolve cell identities up front; a malformed config fails fast.
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		key, err := runKey(cfg)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}

	// Replay recorded cells before scheduling workers.
	outcomes := make([]*Outcome, len(cfgs))
	errs := make([]error, len(cfgs))
	if err := r.Store.Refresh(); err != nil {
		return nil, fmt.Errorf("experiment: store refresh: %w", err)
	}
	var pending []int
	for i := range cfgs {
		out, ok, err := r.Store.Lookup(keys[i])
		if err != nil {
			return nil, fmt.Errorf("experiment: grid cell %d: store: %w", i, err)
		}
		if ok {
			outcomes[i] = out
			continue
		}
		pending = append(pending, i)
	}
	prog := newProgressTracker(r.Progress, len(cfgs), r.Telemetry)
	for _, out := range outcomes {
		if out != nil {
			prog.report(out.Config, out, nil, true, false)
		}
	}

	sched := &leaseScheduler{r: r, keys: keys, pending: pending, obs: make(map[string]*leaseObserver)}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := sched.next(prog, outcomes)
				if !ok {
					return
				}
				out, err := r.runLeased(keys[i], func() (*Outcome, error) {
					sp := r.Telemetry.Cell(cellName(cfgs[i]))
					defer sp.End()
					return r.Run(cfgs[i])
				})
				outcomes[i], errs[i] = out, err
				if err != nil {
					// Report the normalized config so a cell renders the
					// same whether it executed, failed, or was resumed.
					c := cfgs[i]
					_ = c.Normalize() // validated by runKey
					prog.report(c, nil, err, false, false)
					continue
				}
				prog.report(out.Config, out, nil, false, false)
			}
		}()
	}
	wg.Wait()
	if sched.err != nil {
		return nil, sched.err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: grid cell %d (%s/%s/%s): %w",
				i, cfgs[i].Dataset, cfgs[i].Attack, cfgs[i].Defense, err)
		}
	}
	return outcomes, nil
}
