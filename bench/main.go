// Command bench is the repository's one benchmark ladder: four canonical
// workloads, end-to-end metrics on top, per-layer metrics underneath, all
// measured from outside the program. See README.md.
//
// One run (what BENCHMARK.json's command invokes):
//
//	bash bench/run.sh --workload paper_k10 --seed 1 --seconds 15 --trace 0
//
// prints every metric by name and, as the last line, one JSON object. The
// whole ladder, a comparison of two result files, and the A/A check:
//
//	bash bench/run.sh
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -aa
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one measuring process, well inside the 180 s a run
// may take.
const childTimeout = 150 * time.Second

// setupSamples is how many processes set up in one untraced run; set-up
// time is their median.
const setupSamples = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	checks []check
	notes  []string
}

// spawn runs one measuring process and returns its report and its peak
// resident set in MB.
func spawn(o childOpts) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir,
		"-start-ns", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if o.trace {
		args = append(args, "-trace=1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", o.workload, err)
	}
	var line string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, resultPrefix) {
			line = strings.TrimPrefix(l, resultPrefix)
		}
	}
	if line == "" {
		return nil, 0, fmt.Errorf("child %s printed no result", o.workload)
	}
	var res childResult
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return nil, 0, fmt.Errorf("child %s result: %w", o.workload, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return &res, rss, nil
}

// runOnce is one run of one workload: with tracing off it reports every
// end-to-end metric, with tracing on every per-layer metric.
func runOnce(o childOpts) (*runResult, error) {
	res := &runResult{Metrics: make(map[string]metricValue)}
	if o.trace {
		child, _, err := spawn(o)
		if err != nil {
			return nil, err
		}
		units := declByName(perLayer)
		for name, v := range child.PerLayer {
			d, ok := units[name]
			if !ok {
				return nil, fmt.Errorf("undeclared per-layer metric %q", name)
			}
			res.Metrics[name] = metricValue{v, d.Unit}
		}
		res.finish(child)
		return res, nil
	}

	// Set-up is measured in fresh processes, so work moved into process
	// start, input building or the warm-up shows; the last process goes on
	// to the timed passes.
	var setups []float64
	var digests []string
	var child *childResult
	var rss float64
	for i := 0; i < setupSamples; i++ {
		so := o
		so.setupOnly = i < setupSamples-1
		c, r, err := spawn(so)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.SetupS)
		digests = append(digests, c.WarmDigest)
		child, rss = c, r
	}
	same := check{Name: "warm-up-bit-identical-across-processes", OK: true}
	for _, d := range digests {
		if d != digests[0] {
			same.OK = false
			same.Detail = strings.Join(digests, " ")
		}
	}
	child.Checks = append(child.Checks, same)

	// Every pass does the same work, so a metric of the run is the median
	// over its passes; the allocation counts repeat and are pooled.
	var walls, rates, cpus []float64
	var mallocs, bytes float64
	rounds := 0
	for _, ps := range child.Passes {
		walls = append(walls, ps.WallS)
		rates = append(rates, float64(ps.Rounds)/ps.WallS)
		cpus = append(cpus, ps.CPUS)
		mallocs += float64(ps.Mallocs)
		bytes += float64(ps.AllocBytes)
		rounds += ps.Rounds
	}
	if rounds == 0 {
		return nil, errors.New("no round completed")
	}
	values := map[string]float64{
		"setup_s":            median(setups),
		"wall_s":             median(walls),
		"rounds_per_s":       median(rates),
		"cpu_s":              median(cpus),
		"peak_rss_mb":        rss,
		"allocs_per_round":   mallocs / float64(rounds),
		"alloc_mb_per_round": bytes / float64(rounds) / (1 << 20),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	res.notes = append(res.notes, fmt.Sprintf("%d passes of %v s, %d rounds, set-up samples %v s", len(child.Passes), walls, rounds, setups))
	res.finish(child)
	return res, nil
}

func (r *runResult) finish(child *childResult) {
	r.Correct = true
	for _, ps := range child.Passes {
		r.Attempted += ps.Attempted
		r.Failed += ps.Failed
	}
	r.checks = child.Checks
	for _, c := range child.Checks {
		r.Correct = r.Correct && c.OK
	}
	r.Correct = r.Correct && r.Failed == 0 && r.Attempted > 0
	r.notes = append(r.notes, child.Notes...)
}

// print writes every metric by name with its unit, the checks, and the
// result object as the last line.
func (r *runResult) print(decls []metricDecl) error {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, d := range decls {
		fmt.Printf("%-40s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	printChecks(r.checks)
	fmt.Printf("operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printChecks(checks []check) {
	for _, c := range checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("check %-45s %s %s\n", c.Name, verdict, c.Detail)
	}
}

func main() {
	var o childOpts
	var child, compare, aa bool
	var trace, reps int
	flag.StringVar(&o.workload, "workload", "", "workload to run once; empty runs the whole ladder")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny shapes, two rounds: exercises every path in seconds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result and trace files")
	flag.IntVar(&reps, "reps", 3, "ladder: timed runs per workload")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&aa, "aa", false, "run the ladder twice on this build and compare the two sets")
	flag.BoolVar(&child, "child", false, "internal: measuring process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	flag.Int64Var(&o.startNs, "start-ns", 0, "internal: wall clock at process start")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case child:
		os.Exit(childMain(o))
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case o.workload != "":
		if _, err := workloadByName(o.workload); err != nil {
			fatal(err)
		}
		res, err := runOnce(o)
		if err != nil {
			fatal(err)
		}
		decls := endToEnd
		if o.trace {
			decls = perLayer
		}
		if err := res.print(decls); err != nil {
			fatal(err)
		}
	default:
		if err := ladderMain(o, reps, aa); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
