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

// Runner drains grids of configurations. Every cell is paired with its
// clean "no attack, no defense" baseline (the acc of Eq. 4), and that
// baseline is one more cell of the same drain: a grid of attacked runs over
// one federation pays for it once, and CleanAcc and ASR are joined onto
// each cell when the drain finishes.
type Runner struct {
	// Store, when non-nil, records every completed cell — baselines are
	// cells — and adopts the ones already recorded, by an earlier, killed
	// run or by another process draining the same store right now, instead
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

// ProgressEvent reports the completion of one grid cell.
type ProgressEvent struct {
	// Done and Total count completed and scheduled cells, clean baselines
	// included.
	Done, Total int
	// Config identifies the cell, whether it succeeded or failed.
	Config Config
	// Skipped marks a cell replayed from the run store rather than executed.
	Skipped bool
	// Remote marks a cell completed by another process draining the same
	// store while this sweep was running (Skipped is false: the cell
	// finished during the sweep, it just wasn't ours).
	Remote bool
	// Outcome is the completed cell's own result (nil when the cell
	// failed); CleanAcc and ASR are joined on when the grid finishes, so
	// here they are NaN.
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

// NewRunner returns a Runner with no store, progress or telemetry.
func NewRunner() *Runner {
	return &Runner{
		runFn:            Run,
		leasePoll:        500 * time.Millisecond,
		leaseExpirePolls: 5,
		leaseRenewEvery:  time.Second,
	}
}

// Watch hands p to the run of cfg and to nothing else: its clean baseline
// and every other cell run unwatched because nobody gives them a plane. It
// is for a runner that executes one configured cell (repro.RunConfigOpts).
func (r *Runner) Watch(p *Plane, cfg Config) {
	_ = cfg.Normalize() // a config that fails here fails RunGrid first
	r.runFn = func(c Config) (*Outcome, error) {
		if c == cfg {
			return run(c, p)
		}
		return run(c, nil)
	}
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
// workers <= 0 uses GOMAXPROCS) and returns outcomes in input order, each
// with CleanAcc and ASR joined from its clean baseline's MaxAcc. The drain
// is one set of cells: the input cells, then their baselines, with
// duplicate keys dropped, so a baseline shared by many cells — or equal to
// an input cell — runs once. Every cell is leased from the Store before it
// runs and recorded when it completes; cells the store already holds are
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
	// The drain is one set of keys: the input cells, then their clean
	// baselines in the order first seen. Resolving them up front makes a
	// malformed config fail fast.
	var cells []Config // normalized
	var keys []string
	at := make(map[string]int)
	add := func(cfg Config) (int, error) {
		if err := cfg.Normalize(); err != nil {
			return 0, err
		}
		key, err := runKey(cfg)
		if err != nil {
			return 0, err
		}
		if i, ok := at[key]; ok {
			return i, nil
		}
		at[key] = len(cells)
		cells, keys = append(cells, cfg), append(keys, key)
		return len(cells) - 1, nil
	}
	cellAt, cleanAt := make([]int, len(cfgs)), make([]int, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if cellAt[i], err = add(cfg); err != nil {
			return nil, err
		}
	}
	for i, cfg := range cfgs {
		clean, err := cleanOf(cfg)
		if err != nil {
			return nil, err
		}
		if cleanAt[i], err = add(clean); err != nil {
			return nil, err
		}
	}

	// Replay recorded cells before scheduling workers.
	outcomes := make([]*Outcome, len(cells))
	errs := make([]error, len(cells))
	if err := r.Store.Refresh(); err != nil {
		return nil, fmt.Errorf("experiment: store refresh: %w", err)
	}
	var pending []int
	for i := range cells {
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
	prog := newProgressTracker(r.Progress, len(cells), r.Telemetry)
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
					sp := r.Telemetry.Cell(cellName(cells[i]))
					defer sp.End()
					return r.runFn(cells[i])
				})
				if err != nil {
					out = nil
				}
				outcomes[i], errs[i] = out, err
				prog.report(cells[i], out, err, false, false)
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
				i, cells[i].Dataset, cells[i].Attack, cells[i].Defense, err)
		}
	}

	// The join: each cell's CleanAcc is its baseline's MaxAcc, and its ASR
	// (Eq. 4) compares the two.
	joined := make([]*Outcome, len(cfgs))
	for i := range cfgs {
		out := *outcomes[cellAt[i]]
		out.CleanAcc = outcomes[cleanAt[i]].MaxAcc
		out.ASR = fl.ASR(out.CleanAcc*100, out.MaxAcc*100)
		joined[i] = &out
	}
	return joined, nil
}
