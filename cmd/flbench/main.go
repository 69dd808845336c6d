// Command flbench regenerates the paper's tables and figures.
//
// Usage:
//
//	flbench -exp table2            # one artifact, quick profile
//	flbench -exp all -profile full # the whole evaluation, paper settings
//	flbench -exp all -store run.jsonl  # record cells; rerun to finish a killed sweep
//	flbench -list                  # enumerate artifacts
//	flbench -exp fig4 -trace t.json  # one Chrome-trace span per executed cell
//
// With -store, every completed grid cell is appended to a durable JSONL
// run store and cells already recorded there are replayed instead of
// recomputed, so rerunning a killed sweep finishes only its missing work.
// Every cell is claimed under a crash-tolerant lease before it runs: start
// the same command N times (any mix of machines sharing the filesystem)
// and the processes split the grid between them, adopting cells the others
// finished and reclaiming the leases of processes that died mid-cell.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id (see -list) or \"all\"")
	var opts repro.RunOptions
	fs.StringVar(&opts.Profile, "profile", "quick", "scaling profile: quick or full")
	fs.StringVar(&opts.StorePath, "store", "", "JSONL run-store path: completed cells are recorded, recorded cells replayed, and processes sharing the path split the grid (empty = off)")
	fs.StringVar(&opts.Owner, "owner", "", "name recorded in -store lease records and on sweep metrics (diagnostics only; default hostname-pid)")
	progress := fs.Bool("progress", false, "stream per-cell completion lines with ETA to stderr")
	opts.Watch.BindFlags(fs)
	fs.IntVar(&opts.Threads, "threads", 0, "kernel worker-pool size for training/defense compute (0 = GOMAXPROCS); never changes results")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range repro.Experiments() {
			fmt.Println(id)
		}
		return nil
	}
	if opts.Watch.Dash {
		// The hint goes to stderr with the progress stream; stdout stays
		// the paper-table surface.
		opts.Watch.OnBound = func(addr string) { report.DashboardHint(os.Stderr, addr) }
	}
	if *progress {
		opts.Progress = repro.ProgressWriter(os.Stderr)
	}
	ids := repro.Experiments()
	if *expID != "all" {
		ids = []string{*expID}
	}
	// One call for the whole list: store and ops plane (one -ops-addr bind,
	// one set of sweep counters, one dashboard hint) live across experiments.
	return repro.RunExperimentOpts(ids, opts, os.Stdout)
}
