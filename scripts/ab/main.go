// Command ab compares the benchmark of a git ref (the parent) with the
// working tree (the change) in alternating pairs and prints, per workload
// and end-to-end metric, the parent median [q1, q3], the change median,
// their ratio and how many pairs the change won, then every run's value.
// Run it from the root of the repository:
//
//	go run ./scripts/ab -ref HEAD -workload population_100k -pairs 10 -seed 4601
//
// Pair i runs `bash bench/run.sh --workload W --seed s --trace 0` on both
// sides with seed s = seed+i, the parent first on even pairs and the change
// first on odd ones. The parent is exported with git archive into a
// temporary directory and removed afterwards. The exit status is 1 when a
// change median is worse than its BENCHMARK.json bound allows, or when any
// run reports itself incorrect or with failed operations.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// record is the last line a benchmark run prints.
type record struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	ref := flag.String("ref", "HEAD", "git ref of the parent side")
	workloads := flag.String("workload", "population_100k", "comma-separated workloads to pair")
	pairs := flag.Int("pairs", 10, "pairs per workload")
	seed := flag.Int64("seed", 4601, "seed of the first pair; pair i runs seed+i")
	flag.Parse()
	if err := run(*ref, strings.Split(*workloads, ","), *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(ref string, workloads []string, pairs int, seed int64) error {
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := os.MkdirTemp("", "ab-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	if err := export(ref, parent); err != nil {
		return err
	}
	sides := [2]string{parent, "."}
	var failures []string
	for _, w := range workloads {
		sums := make([]summary, len(decl.EndToEnd))
		for i, m := range decl.EndToEnd {
			sums[i].metric = m
		}
		for i := 0; i < pairs; i++ {
			s := seed + int64(i)
			var recs [2]*record
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // 0 parent, 1 change
				rec, err := bench(sides[side], w, s)
				if err != nil {
					return err
				}
				if !rec.Correct || rec.Failed > 0 {
					failures = append(failures, fmt.Sprintf("%s seed %d on the %s: correct=%v, %d of %d operations failed",
						w, s, [2]string{"parent", "change"}[side], rec.Correct, rec.Failed, rec.Attempted))
				}
				recs[side] = rec
			}
			for j := range sums {
				name := sums[j].Name
				sums[j].parent = append(sums[j].parent, recs[0].Metrics[name].Value)
				sums[j].change = append(sums[j].change, recs[1].Metrics[name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s pair %d/%d seed %d done\n", w, i+1, pairs, s)
		}
		fmt.Printf("%s: %d pairs, seeds %d-%d, parent %s\n", w, pairs, seed, seed+int64(pairs)-1, ref)
		fmt.Printf("%-20s %-32s %-12s %-7s %s\n", "metric", "parent median [q1, q3]", "change", "ratio", "wins")
		for _, s := range sums {
			q1, q3 := stats.Quartiles(s.parent)
			p, c := stats.Median(s.parent), stats.Median(s.change)
			verdict := ""
			if s.outOfBound() {
				verdict = fmt.Sprintf("  OUT OF BOUND (%.1f %% worse, bound %.0f %%)", 100*s.loss(), 100*s.Bound)
				failures = append(failures, fmt.Sprintf("%s %s out of bound", w, s.Name))
			}
			fmt.Printf("%-20s %-32s %-12.4g %-7.3f %d/%d%s\n", s.Name, fmt.Sprintf("%.4g [%.4g, %.4g]", p, q1, q3), c, c/p, s.wins(), pairs, verdict)
		}
		fmt.Println("every run, parent/change per pair:")
		for _, s := range sums {
			fmt.Printf("%-20s", s.Name)
			for i := range s.parent {
				fmt.Printf(" %.4g/%.4g", s.parent[i], s.change[i])
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// bench runs one benchmark run in dir and returns its record.
func bench(dir, workload string, seed int64) (*record, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed), "--trace", "0")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d in %s: %w", workload, seed, dir, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return nil, fmt.Errorf("%s seed %d in %s: last line: %w", workload, seed, dir, err)
	}
	return &rec, nil
}

// export writes the tree of ref into dir with git archive.
func export(ref, dir string) error {
	var buf bytes.Buffer
	cmd := exec.Command("git", "archive", "--format=tar", ref)
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	tr := tar.NewReader(&buf)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode).Perm())
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
