// Command flbench regenerates the paper's tables and figures.
//
// Usage:
//
//	flbench -exp table2            # one artifact, quick profile
//	flbench -exp all -profile full # the whole evaluation, paper settings
//	flbench -exp all -store run.jsonl          # journal cells as they finish
//	flbench -exp all -store run.jsonl -resume  # skip cells a killed run completed
//	flbench -exp all -store shared.jsonl -worker  # drain the grid cooperatively
//	flbench -list                  # enumerate artifacts
//
// With -store, every completed grid cell is appended to a durable JSONL
// run store; re-running with -resume replays those cells instead of
// recomputing them, so an interrupted sweep finishes only its missing work.
//
// With -worker, the store becomes a shared work-claiming substrate: start
// the same command N times (any mix of machines sharing the filesystem)
// and the processes split the grid between them, each claiming cells under
// crash-tolerant leases, adopting cells other workers finished, and
// reclaiming the leases of workers that died mid-cell.
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
	fs.StringVar(&opts.StorePath, "store", "", "JSONL run-store path; completed cells are journaled for resume (empty = off)")
	fs.BoolVar(&opts.Resume, "resume", false, "replay cells already present in -store instead of recomputing them")
	fs.BoolVar(&opts.Worker, "worker", false, "drain the grid cooperatively with other -worker processes sharing -store, claiming cells under crash-tolerant leases (implies resume semantics)")
	fs.StringVar(&opts.Owner, "owner", "", "worker name recorded in lease records (diagnostics only; default hostname-pid)")
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
	if opts.Resume && opts.StorePath == "" {
		return fmt.Errorf("-resume requires -store")
	}
	if opts.Worker && opts.StorePath == "" {
		return fmt.Errorf("-worker requires -store")
	}
	if opts.Owner != "" && !opts.Worker {
		return fmt.Errorf("-owner requires -worker")
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
