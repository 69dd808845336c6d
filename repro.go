// Package repro is a from-scratch Go reproduction of "Fabricated Flips:
// Poisoning Federated Learning without Data" (Huang, Zhao, Chen, Roos — DSN
// 2023): the data-free untargeted attacks DFA-R and DFA-G, the baseline
// attacks and robust-aggregation defenses they are evaluated against, and
// the REFD reference-dataset defense, together with the complete
// experimental harness that regenerates every table and figure of the
// paper's evaluation.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/tensor, internal/vec — numerical substrate
//   - internal/nn — CNN training stack (conv, transposed conv, backprop)
//   - internal/dataset — synthetic Fashion-MNIST/CIFAR-10/SVHN analogues
//     and Dirichlet partitioning
//   - internal/fl — the unified federated round engine (client samplers,
//     participation/churn models, server optimizers, sync and FedBuff-style
//     async buffered aggregation), its one in-process driver over any
//     client source, and ASR/DPR metric accounting
//   - internal/population — the lazy million-client source of that driver
//     (O(active)-memory shard materialization), attacker placement models,
//     hierarchical two-tier aggregation
//   - internal/defense — FedAvg, Median, Trimmed mean, Krum/mKrum, Bulyan
//   - internal/attack — LIE, Fang, Min-Max, Min-Sum, random, label-flip
//   - internal/core — DFA-R, DFA-G, L_d regularization, REFD (the paper's
//     contributions)
//   - internal/experiment — named experiments for every table and figure
//
// Use RunExperimentOpts to regenerate paper artifacts, or RunConfigOpts for
// a single custom simulation (its examples run the paper's headline cell
// and the production regimes). The cmd/flbench and cmd/flsim binaries wrap
// these entry points.
package repro

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/tensor"
)

// Config is a single-simulation configuration; see the field documentation
// in internal/experiment. Beyond the paper's axes (dataset, attack,
// defense, heterogeneity) it exposes the round engine's production
// participation axes — Partition, Sampler/SampleRate, DropoutProb/
// StragglerProb, ServerOpt/ServerLR/ServerMomentum, AsyncBuffer/
// AsyncMaxDelay — and the population axes: Population/MeanShard (which
// client source the one round driver trains over: the eager shard table,
// or a lazy O(active)-memory population of up to 10⁶ clients), Placement
// (attacker placement models) and Groups/GroupDefense (hierarchical
// two-tier aggregation). Zero values select the paper's fixed federation
// shape. A Config's outcome is the same on both amd64 builds (SIMD and
// purego); a code change that moves it bumps the run-key version.
type Config = experiment.Config

// Watch says how a run or sweep is watched while it executes — ops endpoint,
// dashboard, audit journal, trace files; see the field documentation in
// internal/experiment. It never enters a Config, a run key or a result.
type Watch = experiment.Watch

// Outcome is a simulation result with the paper's metrics (ASR, DPR, clean
// and attacked accuracies).
type Outcome = experiment.Outcome

// ProgressEvent reports the completion of one grid cell during a sweep.
type ProgressEvent = experiment.ProgressEvent

// RunOptions configures RunExperimentOpts beyond the profile: a durable
// run store for crash-resumable, shareable sweeps, a streaming progress
// callback, the kernel worker-pool width and how the work is watched.
type RunOptions struct {
	// Profile names the scaling profile ("quick" or "full"; "" = quick).
	Profile string
	// StorePath, when non-empty, opens the append-only JSONL run store at
	// this path: every completed grid cell (and clean baseline) is recorded,
	// and cells already recorded — by an earlier, killed run or by another
	// process draining the same store right now — are replayed instead of
	// recomputed. Each cell is claimed under a crash-tolerant lease before
	// it runs, so any number of processes on one path split the grid.
	StorePath string
	// Owner names this process in lease records and labels its sweep
	// metrics (diagnostics only; it never affects results). Empty defaults
	// to hostname-pid.
	Owner string
	// Progress, when non-nil, receives one event per completed cell.
	Progress func(ProgressEvent)
	// Threads pins the kernel worker-pool size (see SetThreads); 0 keeps
	// the current setting (default: GOMAXPROCS).
	Threads int
	// Watch opens the process's ops plane for the call's duration: with an
	// OpsAddr, Prometheus metrics at /metrics (executed cells, cell
	// durations, lease claims/conflicts/reclaims, adopted cells, kernel-pool
	// gauges — labelled worker="<Owner>" when Owner is set), pprof, and the
	// dashboard when Dash is set. RunConfigOpts also hands the plane to its
	// one run (engine metrics, spans, decision audit); a sweep's cells are
	// never individually watched. Pure observation: results are
	// bit-identical with or without it.
	Watch Watch
}

// SetThreads pins the process-global kernel worker-pool size: the bound on
// concurrent goroutines across the blocked GEMM kernels, convolution batch
// fan-out, client training, evaluation and defense scoring. n <= 0 resets
// to GOMAXPROCS. Thread count never changes results, only wall-clock — use
// it to pin sweeps on shared machines.
func SetThreads(n int) { tensor.SetWorkers(n) }

// RunConfigOpts executes a single simulation, filling the clean baseline
// and attack success rate. With a StorePath the completed run (and its
// clean baseline) is recorded, and a run already recorded there is replayed
// instead of recomputed. With a Watch the run itself is observed (its clean
// baseline is not).
func RunConfigOpts(cfg Config, opts RunOptions) (out *Outcome, retErr error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	runner, closeAll, err := openRunner(opts, "fl run — "+cfg.Dataset+"/"+cfg.Defense, cfg)
	if err != nil {
		return nil, err
	}
	defer closeAll(&retErr)
	outs, err := runner.RunGrid([]Config{cfg}, 1)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// openRunner builds the runner the options describe: kernel threads pinned,
// run store attached, ops plane opened (title heads its dashboard) with the
// runner's sweep instruments on it. With a watched config — a single run's
// — the plane serves that run's one federation and is handed to its run
// alone. The returned func closes plane and store, reporting a close
// failure through *err unless the work already failed.
func openRunner(opts RunOptions, title string, watched ...Config) (*experiment.Runner, func(err *error), error) {
	if opts.Threads > 0 {
		SetThreads(opts.Threads)
	}
	store, err := experiment.OpenStore(opts.StorePath, opts.Owner)
	if err != nil {
		return nil, nil, err
	}
	var federations []string
	if len(watched) > 0 {
		federations = []string{""}
	}
	plane, err := experiment.OpenPlane(opts.Watch, title, federations...)
	if err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	runner := experiment.NewRunner()
	runner.Progress = opts.Progress
	runner.Store = store
	runner.Telemetry = plane.Sweep(opts.Owner)
	if len(watched) > 0 {
		runner.Watch(plane, watched[0])
	}
	return runner, func(err *error) {
		plane.CloseInto(err)
		_ = store.Close()
	}, nil
}

// ProgressWriter returns a RunOptions.Progress callback that streams one
// human-readable line per completed cell to w.
func ProgressWriter(w io.Writer) func(ProgressEvent) {
	return report.Progress(w)
}

// Experiments lists the IDs of all reproducible paper artifacts in paper
// order (table2, fig4, … compression).
func Experiments() []string {
	all := experiment.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// RunExperimentOpts regenerates the named tables and figures, in order, with
// full control over profile, run store, progress reporting and watching,
// writing each artifact's paper-style rows and a "## <id> done in …" line
// to w. Store and ops plane are opened once and live for the whole call.
// With a StorePath, completed cells are recorded as they finish, and a
// re-run against the same store executes only the cells no earlier
// (possibly killed) or concurrent run recorded.
func RunExperimentOpts(ids []string, opts RunOptions, w io.Writer) (retErr error) {
	exps := make([]experiment.Experiment, len(ids))
	for i, id := range ids {
		exp, ok := experiment.ByID(id)
		if !ok {
			return fmt.Errorf("repro: unknown experiment %q (known: %v)", id, Experiments())
		}
		exps[i] = exp
	}
	profile, ok := experiment.ProfileByName(opts.Profile)
	if !ok {
		return fmt.Errorf("repro: unknown profile %q (known: quick, full)", opts.Profile)
	}
	runner, closeAll, err := openRunner(opts, "fl sweep dashboard")
	if err != nil {
		return err
	}
	defer closeAll(&retErr)
	for _, exp := range exps {
		start := time.Now()
		if _, err := fmt.Fprintf(w, "# %s [profile=%s]\n", exp.Title, profile.Name); err != nil {
			return err
		}
		if err := exp.Run(runner, profile, w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "## %s done in %v\n\n", exp.ID, time.Since(start).Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}
