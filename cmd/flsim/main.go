// Command flsim runs a single federated-learning poisoning simulation with
// explicit parameters and prints the per-round accuracy timeline plus the
// paper's metrics (clean accuracy, acc_m, ASR, DPR).
//
// Example:
//
//	flsim -dataset cifar-sim -attack dfa-g -defense bulyan -beta 0.5 -rounds 20
//	flsim -attack dfa-r -store run.jsonl           # rerun: a free re-print of the recorded run
//	flsim -sampler bernoulli -dropout 0.2 -server-opt fedavgm   # cross-device churn
//	flsim -async-buffer 5 -async-delay 2           # FedBuff-style buffered aggregation
//	flsim -population virtual -clients 1000000 -per-round 50 \
//	      -placement scatter -frac 0.001 -groups 10   # production-scale lazy population
//	flsim -defense refd -forensics -ops-addr :9090 -audit audit.jsonl
//	                                               # audit every defense decision, live at /forensics/
//	flsim -trace trace.json -ops-addr :9090        # per-phase Chrome trace + Prometheus/pprof ops endpoint
//	flsim -attack dfa-r -defense krum -dash        # live operator dashboard (prints its /dash/ URL on stderr)
//	flsim -dash -dash-replay audit.jsonl,run.jsonl # … with the time-travel/diff tab over finished runs
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/persist"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flsim", flag.ContinueOnError)
	cfg := repro.Config{Parallel: true}
	cfg.BindFlags(fs)
	var opts repro.RunOptions
	opts.Watch.BindFlags(fs)
	fs.StringVar(&opts.Watch.AuditPath, "audit", "", "JSONL audit-journal path: one line per aggregation with per-update fingerprints, decisions and scores")
	fs.StringVar(&opts.StorePath, "store", "", "JSONL run-store path: the completed run is recorded, and a run already recorded is replayed instead of recomputed (empty = off)")
	fs.IntVar(&opts.Threads, "threads", 0, "kernel worker-pool size for training/defense compute (0 = GOMAXPROCS); never changes results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.Watch.Dash {
		// The hint goes to stderr so piped stdout keeps its machine shape.
		opts.Watch.OnBound = func(addr string) { report.DashboardHint(os.Stderr, addr) }
	}

	start := time.Now()
	out, err := repro.RunConfigOpts(cfg, opts)
	if err != nil {
		return err
	}
	fmt.Printf("dataset=%s attack=%s defense=%s beta=%g frac=%g rounds=%d seed=%d\n",
		out.Config.Dataset, out.Config.Attack, out.Config.Defense,
		out.Config.Beta, out.Config.AttackerFrac, out.Config.Rounds, out.Config.Seed)
	for i, acc := range out.AccTimeline {
		if !math.IsNaN(acc) {
			fmt.Printf("round %3d  accuracy %.4f\n", i+1, acc)
		}
	}
	var selected, dropped, straggled, responded, aggs int
	for _, rs := range out.Trace {
		selected += rs.Selected
		dropped += rs.Dropped
		straggled += rs.Straggled
		responded += rs.Responded
		aggs += rs.Aggregations
	}
	// The normalized config canonicalizes the default sampler and placement
	// to "".
	if dropped+straggled > 0 || out.Config.AsyncBuffer > 0 || out.Config.Sampler != "" {
		fmt.Printf("participation: sampler=%s selected=%d dropped=%d straggled=%d responded=%d aggregations=%d\n",
			cmp.Or(out.Config.Sampler, "uniform"), selected, dropped, straggled, responded, aggs)
	}
	if out.Config.Population != "" {
		fmt.Printf("population: backend=%s N=%d mean-shard=%d placement=%s groups=%d\n",
			out.Config.Population, out.Config.TotalClients, out.Config.MeanShard,
			cmp.Or(out.Config.Placement, "first"), out.Config.Groups)
	}
	if out.Config.Codec != "" {
		fmt.Printf("codec: %s topk=%g error-feedback=%t\n",
			out.Config.Codec, out.Config.TopK, out.Config.ErrorFeedback)
	}
	if d := out.Detection; d != nil {
		na := func(v persist.Float) string {
			if math.IsNaN(float64(v)) {
				return "N/A"
			}
			return fmt.Sprintf("%.3f", float64(v))
		}
		fmt.Printf("detection: aggregations=%d zero_sel=%d TPR=%s FPR=%s precision=%s F1=%s AUC=%s TPR@1%%FPR=%s score=%s\n",
			d.Aggregations, d.ZeroSelectionRounds, na(d.TPR), na(d.FPR),
			na(d.Precision), na(d.F1), na(d.AUC), na(d.TPRAt1FPR), d.ScoreName)
	}
	dpr := "N/A"
	if !math.IsNaN(out.DPR) {
		dpr = fmt.Sprintf("%.2f%%", out.DPR)
	}
	fmt.Printf("clean_acc=%.2f%% acc_m=%.2f%% final=%.2f%% ASR=%.2f%% DPR=%s digest=%s elapsed=%v\n",
		out.CleanAcc*100, out.MaxAcc*100, out.FinalAcc*100, out.ASR, dpr, out.Digest,
		time.Since(start).Round(time.Millisecond))
	return nil
}
