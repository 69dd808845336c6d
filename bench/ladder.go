package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// The ladder runs every workload several times and writes one result file;
// two result files compare row by row.

type envInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// summary is one end-to-end metric of one workload over the ladder's runs.
type summary struct {
	metricDecl
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  []summary              `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Checks    []check                `json:"checks"`
	// Notes are the traced run's: replay coverage per cell shape, self time
	// per layer.
	Notes []string `json:"notes"`
}

type ladderResult struct {
	Schema int `json:"schema"`
	// Claim is null: the change that defines the benchmark claims no gain.
	Claim      *string          `json:"claim"`
	Env        envInfo          `json:"env"`
	RunSeconds float64          `json:"run_seconds"`
	Seed       int64            `json:"seed"`
	Workloads  []workloadResult `json:"workloads"`
}

func firstLineWith(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, prefix) {
			if _, v, ok := strings.Cut(l, ":"); ok {
				return strings.TrimSpace(v)
			}
			return strings.TrimSpace(l)
		}
	}
	return "unknown"
}

func readEnv() envInfo {
	return envInfo{
		CPU:        firstLineWith("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     firstLineWith("/proc/sys/kernel/osrelease", ""),
	}
}

func summarize(d metricDecl, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{metricDecl: d, Median: median(values), Q1: q1, Q3: q3, N: len(values), Values: values}
}

// resolved reports whether the metric's run-to-run spread is within its
// bound; beyond it a difference cannot be told from noise.
func (s summary) resolved() bool {
	return s.N < 2 || (s.Q3-s.Q1)/math.Abs(s.Median) <= s.Bound
}

// runLadder runs every workload reps times untraced (seeds seed, seed+1,
// ...) and once traced.
func runLadder(o childOpts, reps int) (*ladderResult, error) {
	out := &ladderResult{Schema: 1, Env: readEnv(), RunSeconds: o.seconds, Seed: o.seed}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Why: w.why, Correct: true}
		values := make(map[string][]float64)
		for rep := 0; rep <= reps; rep++ {
			ro := o
			ro.workload, ro.seed, ro.trace = w.name, o.seed+int64(rep), rep == reps
			if ro.trace {
				ro.seed = o.seed
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d (seed %d, trace %t)\n", w.name, rep+1, reps+1, ro.seed, ro.trace)
			res, err := runOnce(ro)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Checks = mergeChecks(append(wr.Checks, res.checks...))
			if ro.trace {
				wr.PerLayer, wr.Notes = res.Metrics, res.notes
				continue
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd = append(wr.EndToEnd, summarize(d, values[d.Name]))
		}
		out.Workloads = append(out.Workloads, wr)
	}
	return out, nil
}

func (l *ladderResult) print() {
	fmt.Printf("env: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s\n", l.Env.CPU, l.Env.NProc, l.Env.GOMAXPROCS, l.Env.Go, l.Env.Kernel)
	for _, w := range l.Workloads {
		fmt.Printf("\n== %s (%d of %d operations failed)\n", w.Name, w.Failed, w.Attempted)
		for _, s := range w.EndToEnd {
			state := ""
			if !s.resolved() {
				state = "  unresolved: spread exceeds bound"
			}
			fmt.Printf("%-40s %14.6g %-8s q1 %.6g q3 %.6g n %d%s\n", s.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, state)
		}
		for _, d := range perLayer {
			fmt.Printf("%-40s %14.6g %s\n", d.Name, w.PerLayer[d.Name].Value, d.Unit)
		}
		for _, n := range w.Notes {
			fmt.Println("#", n)
		}
		printChecks(w.Checks)
	}
}

func (l *ladderResult) correct() bool {
	for _, w := range l.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ladderMain(o childOpts, reps int, aa bool) error {
	a, err := runLadder(o, reps)
	if err != nil {
		return err
	}
	a.print()
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, a); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)
	if !a.correct() {
		return errors.New("a correctness check failed")
	}
	if !aa {
		return nil
	}
	b, err := runLadder(o, reps)
	if err != nil {
		return err
	}
	pathB := filepath.Join(o.outDir, "result-aa.json")
	if err := writeJSON(pathB, b); err != nil {
		return err
	}
	fmt.Println("wrote", pathB)
	if !b.correct() {
		return errors.New("a correctness check failed")
	}
	if compareResults(a, b) {
		return errors.New("A/A: two sets of runs of the same build disagree")
	}
	return nil
}

// verdict compares one metric of two result files. A metric whose spread on
// either side exceeds its bound is unresolved, never unchanged.
func verdict(a, b summary) string {
	if !a.resolved() || !b.resolved() {
		return "unresolved"
	}
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		change = -change
	}
	switch {
	case change > a.Bound:
		return "worse"
	case change < -a.Bound:
		return "better"
	}
	return "unchanged"
}

// compareResults prints one row per (workload, metric) and reports whether
// any row is worse or unresolved.
func compareResults(a, b *ladderResult) (bad bool) {
	fmt.Printf("%-22s %-20s %12s %12s %25s %25s %6s  %s\n", "workload", "metric", "a median", "b median", "a q1..q3", "b q1..q3", "bound", "verdict")
	other := make(map[string]workloadResult)
	for _, wb := range b.Workloads {
		other[wb.Name] = wb
	}
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			continue
		}
		metrics := make(map[string]summary)
		for _, sb := range wb.EndToEnd {
			metrics[sb.Name] = sb
		}
		for _, sa := range wa.EndToEnd {
			sb, ok := metrics[sa.Name]
			if !ok {
				continue
			}
			v := verdict(sa, sb)
			bad = bad || v == "worse" || v == "unresolved"
			fmt.Printf("%-22s %-20s %12.6g %12.6g %25s %25s %5.0f%%  %s\n", wa.Name, sa.Name, sa.Median, sb.Median,
				fmt.Sprintf("%.5g..%.5g", sa.Q1, sa.Q3), fmt.Sprintf("%.5g..%.5g", sb.Q1, sb.Q3), 100*sa.Bound, v)
		}
		if wa.Failed != wb.Failed {
			bad = true
			fmt.Printf("%-22s %-20s %12d %12d  failed operations differ\n", wa.Name, "failed", wa.Failed, wb.Failed)
		}
	}
	return bad
}

func readResult(path string) (*ladderResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ladderResult
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func compareFiles(pathA, pathB string) (bad bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Printf("warning: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	return compareResults(a, b), nil
}
