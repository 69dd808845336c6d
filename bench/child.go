package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// mergeChecks folds repeated checks of one name (one per pass) into one.
func mergeChecks(checks []check) []check {
	var out []check
	index := make(map[string]int)
	for _, c := range checks {
		i, seen := index[c.Name]
		if !seen {
			index[c.Name] = len(out)
			out = append(out, c)
			continue
		}
		if !c.OK && out[i].OK {
			out[i] = c
		}
	}
	return out
}

// runner is what a workload kind implements: a discarded warm-up whose
// result digest must agree across processes, timed passes, and the checks
// to report when timing is over.
type runner interface {
	warm() (digest string, err error)
	// pass runs pass number index. Every pass does the same work; an
	// in-process pass draws its cells' seeds from its number, so running a
	// number twice must give bit-identical results.
	pass(tr *tracer, index int) passStat
	verify() []check
	// layerMetrics fills the workload's in-run per-layer metrics after the
	// traced passes and returns notes to print (in-process workloads replay
	// their cell shapes here, adding spans to tr).
	layerMetrics(tr *tracer, into map[string]float64) (notes []string, err error)
}

// childOpts are the arguments of one measuring process.
type childOpts struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	setupOnly bool
	// startNs is the wall clock just before the parent started this
	// process; set-up time counts from there.
	startNs int64
	outDir  string
}

// childResult is what one measuring process reports to its parent.
type childResult struct {
	SetupS     float64
	WarmDigest string
	Passes     []passStat
	Checks     []check
	PerLayer   map[string]float64 `json:",omitempty"`
	Notes      []string           `json:",omitempty"`
}

const resultPrefix = "BENCH-CHILD-RESULT "

func newRunner(w workload, o childOpts) (runner, error) {
	if w.socket != nil {
		return newSocketRunner(w.socket.scaled(o.smoke), o.seed)
	}
	return &inprocRunner{
		w: w, seed: o.seed, smoke: o.smoke,
		seen: make(map[int][]cellResult), cellWalls: make(map[string][]float64),
	}, nil
}

// measure is one child process's work: set up (build inputs, run the
// discarded warm-up), then repeat passes until the time budget is used.
func measure(o childOpts) (*childResult, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if o.startNs != 0 {
		start = time.Unix(0, o.startNs)
	}
	r, err := newRunner(w, o)
	if err != nil {
		return nil, err
	}
	res := &childResult{}
	if res.WarmDigest, err = r.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.SetupS = time.Since(start).Seconds()
	if o.setupOnly {
		return res, nil
	}
	if w.socket != nil {
		// A federation's heap (about 1 GB at K=500) takes several rounds
		// to reach its steady size, far longer than the warm-up that set-up
		// time can afford in every process; one whole discarded pass lets it
		// settle. In-process passes are steady from the first.
		r.pass(nil, 0)
	}
	if o.trace {
		err = measureTraced(w, r, o, res)
	} else {
		res.Passes = timedPasses(r, nil, o.seconds)
	}
	res.Checks = mergeChecks(r.verify())
	return res, err
}

// timedPasses repeats whole passes until the next one would overrun the
// budget by more than it undershoots; at least one pass runs.
func timedPasses(r runner, tr *tracer, seconds float64) []passStat {
	var passes []passStat
	start := time.Now()
	for {
		ps := r.pass(tr, len(passes))
		passes = append(passes, ps)
		if time.Since(start).Seconds()+ps.WallS/2 > seconds {
			return passes
		}
	}
}

// measureTraced is the traced run: one untraced pass as the reference, then
// traced passes (socket workloads: the federation with the decorators on;
// in-process workloads: one span per cell and a replayed round per cell
// shape), then the probes. End-to-end metrics never come from here.
func measureTraced(w workload, r runner, o childOpts, res *childResult) error {
	into := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		into[d.Name] = 0
	}
	untraced := r.pass(nil, 0)
	tr := newTracer(w.name)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var traced []passStat
	if w.socket != nil {
		traced = timedPasses(r, tr, o.seconds-untraced.WallS)
	} else {
		traced = []passStat{r.pass(tr, 0)}
	}
	runtime.ReadMemStats(&after)
	res.Passes = append([]passStat{untraced}, traced...)
	into["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	into["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	into["runtime.heap_peak_mb"] = float64(after.HeapSys) / (1 << 20)
	tracedWall, tracedRounds := 0.0, 0
	for _, ps := range traced {
		tracedWall += ps.WallS
		tracedRounds += ps.Rounds
	}
	if tracedRounds > 0 && untraced.Rounds > 0 {
		into["trace.overhead_share"] = (tracedWall/float64(tracedRounds))/(untraced.WallS/float64(untraced.Rounds)) - 1
	}

	notes, err := r.layerMetrics(tr, into)
	if err != nil {
		return err
	}
	if !o.smoke {
		runProbes(o.seed, into)
	}
	res.PerLayer = into

	spans := tr.snapshot()
	self := layerSelfSeconds(spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		notes = append(notes, fmt.Sprintf("self time %-12s %.3f s", layer, self[layer]))
	}
	res.Notes = notes
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), spans)
}

func childMain(o childOpts) int {
	res, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		if res == nil {
			return 1
		}
		res.Checks = append(res.Checks, check{"run-completes", false, err.Error()})
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Println(resultPrefix + string(line))
	return 0
}
