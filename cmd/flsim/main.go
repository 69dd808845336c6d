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
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro"
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
	fs.StringVar(&cfg.Dataset, "dataset", "fashion-sim", "dataset: fashion-sim, cifar-sim, svhn-sim, tiny-sim")
	fs.StringVar(&cfg.Attack, "attack", "dfa-r", "attack: none, random, labelflip, lie, fang, minmax, minsum, dfa-r, dfa-g, dfa-r-static, dfa-g-static, real-data")
	fs.StringVar(&cfg.Defense, "defense", "mkrum", "defense: fedavg, median, trmean, krum, mkrum, bulyan, refd")
	fs.Float64Var(&cfg.Beta, "beta", 0.5, "Dirichlet heterogeneity (<=0 for i.i.d.)")
	fs.Float64Var(&cfg.AttackerFrac, "frac", 0.2, "fraction of malicious clients")
	fs.IntVar(&cfg.Rounds, "rounds", 15, "federated rounds")
	fs.IntVar(&cfg.TotalClients, "clients", 100, "total clients N")
	fs.IntVar(&cfg.PerRound, "per-round", 10, "clients selected per round K")
	fs.IntVar(&cfg.SampleCount, "samples", 50, "DFA synthetic set size |S|")
	fs.IntVar(&cfg.SynthesisEpochs, "synth-epochs", 0, "DFA synthesis epochs E (0 = paper default)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.IntVar(&cfg.EvalLimit, "eval-limit", 500, "test samples per evaluation (0 = all)")
	fs.BoolVar(&cfg.NoReg, "no-reg", false, "disable the distance-based regularization L_d")
	fs.StringVar(&cfg.Partition, "partition", "label", "shard assignment: label (Dirichlet label skew / i.i.d. by beta), quantity (Dirichlet shard-size skew)")
	fs.StringVar(&cfg.Sampler, "sampler", "uniform", "per-round selection: uniform (K of N), bernoulli (per-client probability), weighted (by shard size)")
	fs.Float64Var(&cfg.SampleRate, "sample-rate", 0, "bernoulli participation probability (0 = K/N)")
	fs.Float64Var(&cfg.DropoutProb, "dropout", 0, "per-selection probability a client is unavailable for the round")
	fs.Float64Var(&cfg.StragglerProb, "straggler", 0, "per-selection probability a client misses the round deadline")
	fs.StringVar(&cfg.ServerOpt, "server-opt", "plain", "server optimizer: plain, lr (server learning rate), fedavgm (server momentum)")
	fs.Float64Var(&cfg.ServerLR, "server-lr", 0, "server learning rate for -server-opt lr/fedavgm (0 = 1)")
	fs.Float64Var(&cfg.ServerMomentum, "server-momentum", 0, "FedAvgM velocity decay (0 = 0.9)")
	fs.IntVar(&cfg.AsyncBuffer, "async-buffer", 0, "FedBuff-style async aggregation buffer size B (0 = synchronous rounds)")
	fs.IntVar(&cfg.AsyncMaxDelay, "async-delay", 0, "max simulated update arrival delay in rounds for async mode (0 = 2)")
	fs.StringVar(&cfg.Population, "population", "eager", "client-population backend: eager (all shards up front), virtual (lazy O(active)-memory population for N up to 10^6)")
	fs.IntVar(&cfg.MeanShard, "mean-shard", 0, "virtual population's expected per-client shard size in samples (0 = 32)")
	fs.IntVar(&cfg.PopCache, "pop-cache", 0, "virtual population's LRU shard-materialization cache in shards (0 = max(4*K, 64)); memory only, never results")
	fs.StringVar(&cfg.Placement, "placement", "first", "attacker placement: first (the first floor(frac*N) IDs), scatter (seeded spread), sybil (contiguous burst-join block), sizecorr (proportional to shard size)")
	fs.IntVar(&cfg.Groups, "groups", 0, "hierarchical aggregation with this many group aggregators (0 = flat server)")
	fs.StringVar(&cfg.GroupDefense, "group-defense", "", "per-group tier-1 rule for -groups (empty = same as -defense)")
	fs.StringVar(&cfg.Codec, "codec", "none", "update compression: none, raw (lossless transport reshaping), fp16 (half-precision deltas), int8 (block-scaled stochastic 8-bit deltas)")
	fs.Float64Var(&cfg.TopK, "topk", 0, "keep only this fraction of largest-magnitude delta coordinates per update, in (0,1) (0 = dense; requires -codec)")
	fs.BoolVar(&cfg.ErrorFeedback, "error-feedback", false, "carry each round's quantization/sparsification residual into the client's next update (requires a lossy -codec)")
	fs.BoolVar(&cfg.Forensics, "forensics", false, "audit every defense decision and stream detection metrics (TPR/FPR/AUC vs ground truth); implied by -audit and -dash")
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
	// The normalized config canonicalizes the legacy sampler to "".
	samplerName := out.Config.Sampler
	if samplerName == "" {
		samplerName = "uniform"
	}
	if dropped+straggled > 0 || out.Config.AsyncBuffer > 0 || out.Config.Sampler != "" {
		fmt.Printf("participation: sampler=%s selected=%d dropped=%d straggled=%d responded=%d aggregations=%d\n",
			samplerName, selected, dropped, straggled, responded, aggs)
	}
	if out.Config.Population != "" {
		placement := out.Config.Placement
		if placement == "" {
			placement = "first"
		}
		fmt.Printf("population: backend=%s N=%d mean-shard=%d placement=%s groups=%d\n",
			out.Config.Population, out.Config.TotalClients, out.Config.MeanShard,
			placement, out.Config.Groups)
	}
	if out.Config.Codec != "" {
		fmt.Printf("codec: %s topk=%g error-feedback=%t\n",
			out.Config.Codec, out.Config.TopK, out.Config.ErrorFeedback)
	}
	if d := out.Detection; d != nil {
		na := func(v float64) string {
			if math.IsNaN(v) {
				return "N/A"
			}
			return fmt.Sprintf("%.3f", v)
		}
		fmt.Printf("detection: aggregations=%d zero_sel=%d TPR=%s FPR=%s precision=%s F1=%s AUC=%s TPR@1%%FPR=%s score=%s\n",
			d.Aggregations, d.ZeroSelectionRounds, na(d.TPR), na(d.FPR),
			na(d.Precision), na(d.F1), na(d.AUC), na(d.TPRAt1FPR), d.ScoreName)
	}
	dpr := "N/A"
	if !math.IsNaN(out.DPR) {
		dpr = fmt.Sprintf("%.2f%%", out.DPR)
	}
	fmt.Printf("clean_acc=%.2f%% acc_m=%.2f%% final=%.2f%% ASR=%.2f%% DPR=%s elapsed=%v\n",
		out.CleanAcc*100, out.MaxAcc*100, out.FinalAcc*100, out.ASR, dpr,
		time.Since(start).Round(time.Millisecond))
	return nil
}
