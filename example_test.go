package repro_test

import (
	"crypto/sha256"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// The paper's headline scenario end to end: the data-free DFA-R attack
// against a Multi-Krum-defended federation on the Fashion-MNIST-like task,
// with the two metrics the paper reports (attack success rate and defense
// pass rate).
func ExampleRunConfigOpts() {
	cfg := repro.Config{
		Dataset:      "fashion-sim",
		Attack:       "dfa-r",
		Defense:      "mkrum",
		Beta:         0.5, // Dirichlet heterogeneity, the paper's default
		AttackerFrac: 0.2, // 20 of 100 clients are malicious
		Rounds:       12,
		SampleCount:  20, // |S|: synthetic images per round
		Parallel:     true,
	}
	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DFA-R vs Multi-Krum on fashion-sim (β = 0.5, 20% attackers)")
	fmt.Printf("  clean accuracy (no attack, no defense): %.1f%%\n", out.CleanAcc*100)
	fmt.Printf("  best accuracy under attack (acc_m):     %.1f%%\n", out.MaxAcc*100)
	fmt.Printf("  attack success rate (ASR):              %.1f%%\n", out.ASR)
	fmt.Printf("  defense pass rate (DPR):                %.1f%%\n", out.DPR)
	fmt.Println("per-round global model accuracy:")
	for i, acc := range out.AccTimeline {
		fmt.Printf("  round %2d  %.3f  %s\n", i+1, acc, strings.Repeat("#", int(acc*50)))
	}
	// Output:
	// DFA-R vs Multi-Krum on fashion-sim (β = 0.5, 20% attackers)
	//   clean accuracy (no attack, no defense): 65.0%
	//   best accuracy under attack (acc_m):     47.0%
	//   attack success rate (ASR):              27.7%
	//   defense pass rate (DPR):                78.6%
	// per-round global model accuracy:
	//   round  1  0.120  ######
	//   round  2  0.102  #####
	//   round  3  0.168  ########
	//   round  4  0.180  #########
	//   round  5  0.130  ######
	//   round  6  0.142  #######
	//   round  7  0.160  ########
	//   round  8  0.196  #########
	//   round  9  0.212  ##########
	//   round 10  0.384  ###################
	//   round 11  0.438  #####################
	//   round 12  0.470  #######################
}

// A million-client cross-device federation in O(active clients) memory.
// The paper evaluates DFA with 100 clients and 20% attackers; production
// cross-device FL (Shejwalkar et al., "Back to the Drawing Board") means
// millions of enrolled devices, tiny per-round samples and attacker
// fractions below 1%. This runs one DFA-R/mKrum cell over a 1,000,000-client
// virtual population with scattered 0.1% attacker placement and
// hierarchical two-tier aggregation: shards are derived lazily per
// participant, so the run allocates for the ~40 clients it touches per
// round, never for the million it models.
func ExampleRunConfigOpts_population() {
	cfg := repro.Config{
		Dataset:      "tiny-sim",
		Attack:       "dfa-r",
		Defense:      "mkrum",
		Beta:         0.5,
		Seed:         1,
		Rounds:       6,
		EvalLimit:    80,
		SampleCount:  10,
		TotalClients: 1000000, // a million virtual devices
		PerRound:     40,      // of which 40 participate per round
		AttackerFrac: 0.001,   // 0.1% compromised: the production regime
		Population:   "virtual",
		Placement:    "scatter", // attackers spread through the ID space
		Groups:       4,         // 4 group aggregators under a robust server tier
		Parallel:     true,
	}
	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	selMal := 0
	for _, rs := range out.Trace {
		selMal += rs.SelectedMalicious
	}
	fmt.Printf("N=%d per-round=%d attacker-frac=%g placement=%s groups=%d\n",
		cfg.TotalClients, cfg.PerRound, cfg.AttackerFrac, cfg.Placement, cfg.Groups)
	fmt.Printf("clean=%.2f%% acc_m=%.2f%% ASR=%.2f%% DPR=%s malicious-selections=%d\n",
		out.CleanAcc*100, out.MaxAcc*100, out.ASR, percent(out.DPR), selMal)
	// At 0.1% compromise a 40-of-1M sample selects an attacker in only ~4%
	// of rounds: the dilution that makes production-scale poisoning a
	// different problem from the paper's 20%.

	// Output:
	// N=1000000 per-round=40 attacker-frac=0.001 placement=scatter groups=4
	// clean=97.50% acc_m=95.00% ASR=2.56% DPR=50.00% malicious-selections=2
}

// The round engine's production-participation axes. The paper evaluates
// DFA under one fixed federation shape (N=100, uniform K=10, synchronous
// FedAvg); this runs the same attack/defense cell under two production
// cross-device scenarios: Bernoulli sampling with client churn and a
// FedAvgM server optimizer, and FedBuff-style async buffered aggregation
// with staleness discounting.
func ExampleRunConfigOpts_scenarios() {
	base := repro.Config{
		Dataset:      "fashion-sim",
		Attack:       "dfa-r",
		Defense:      "mkrum",
		Beta:         0.5,
		Seed:         1,
		Rounds:       8,
		TrainN:       3000,
		EvalLimit:    250,
		SampleCount:  10,
		TotalClients: 40,
		PerRound:     8,
		Parallel:     true,
	}

	churn := base
	churn.Sampler = "bernoulli" // each client joins w.p. K/N, so rounds vary in size
	churn.DropoutProb = 0.2     // 20% of selections never train
	churn.StragglerProb = 0.1   // 10% train but miss the deadline
	churn.ServerOpt = "fedavgm" // server momentum smooths the noisy rounds

	async := base
	async.AsyncBuffer = 5   // aggregate whenever 5 updates are buffered
	async.AsyncMaxDelay = 2 // updates arrive up to 2 rounds late

	for _, c := range []struct {
		name string
		cfg  repro.Config
	}{
		{"paper shape (sync uniform)", base},
		{"bernoulli + churn + fedavgm", churn},
		{"async buffered (FedBuff-style)", async},
	} {
		out, err := repro.RunConfigOpts(c.cfg, repro.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		var selected, dropped, straggled, responded, aggs int
		for _, rs := range out.Trace {
			selected += rs.Selected
			dropped += rs.Dropped
			straggled += rs.Straggled
			responded += rs.Responded
			aggs += rs.Aggregations
		}
		fmt.Printf("%-30s acc_m=%5.2f%% ASR=%6.2f%% DPR=%s selected=%d dropped=%d straggled=%d responded=%d aggregations=%d\n",
			c.name, out.MaxAcc*100, out.ASR, percent(out.DPR), selected, dropped, straggled, responded, aggs)
	}
	// Output:
	// paper shape (sync uniform)     acc_m=35.60% ASR= 51.10% DPR=100.00% selected=64 dropped=0 straggled=0 responded=64 aggregations=8
	// bernoulli + churn + fedavgm    acc_m=54.40% ASR= 32.67% DPR=90.00% selected=60 dropped=15 straggled=4 responded=41 aggregations=8
	// async buffered (FedBuff-style) acc_m=28.40% ASR= 47.41% DPR=91.67% selected=64 dropped=0 straggled=0 responded=64 aggregations=13
}

// Auditing every defense decision and reading the detection-quality metrics
// the endpoint numbers hide. Two defenses with the same DPR can behave very
// differently in production: one filters exactly the attackers, the other
// filters half its benign clients along with them. This runs a Min-Max/REFD
// cell with the forensics subsystem attached: every update is
// fingerprinted (norm, cosine to the round mean, neighbour distances), every
// accept/reject decision is joined against ground truth, and the streaming
// metrics engine maintains TPR/FPR/F1 plus ROC AUC over REFD's D-scores.
// The same data is written to a JSONL audit journal and, in a real run, can
// be served live over HTTP (flsim -ops-addr, under /forensics/).
func ExampleRunConfigOpts_forensics() {
	dir, err := os.MkdirTemp("", "forensics-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	auditPath := filepath.Join(dir, "audit.jsonl")

	cfg := repro.Config{
		Dataset:      "tiny-sim",
		Attack:       "minmax",
		Defense:      "refd",
		Beta:         0.5,
		Seed:         1,
		Rounds:       6,
		EvalLimit:    80,
		AttackerFrac: 0.25,
		RefPerClass:  8,
		Parallel:     true,
		Forensics:    true,
	}
	// Where the audit is written is how the run is watched, not what it is:
	// it travels in the options, never in the Config.
	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{Watch: repro.Watch{AuditPath: auditPath}})
	if err != nil {
		log.Fatal(err)
	}

	d := out.Detection
	fmt.Printf("endpoint view:  acc_m=%.2f%% ASR=%.2f%% DPR=%s\n", out.MaxAcc*100, out.ASR, percent(out.DPR))
	fmt.Printf("detection view: TPR=%.3f FPR=%.3f precision=%.3f F1=%.3f\n", d.TPR, d.FPR, d.Precision, d.F1)
	fmt.Printf("ROC over %s scores: AUC=%.3f TPR@1%%FPR=%.3f (%d score pairs, reservoir %d)\n",
		d.ScoreName, d.AUC, d.TPRAt1FPR, d.ScorePairs, d.ReservoirLen)
	fmt.Printf("audited %d aggregations (%d zero-selection) over %d updates, %d malicious\n",
		d.Aggregations, d.ZeroSelectionRounds, d.Updates, d.MaliciousSeen)
	// The journal's bytes, every fingerprint and decision of every round,
	// are the same on every build.
	if journal, err := os.ReadFile(auditPath); err == nil {
		sum := sha256.Sum256(journal)
		fmt.Printf("audit journal sha256: %x…\n", sum[:8])
	}
	// DPR counts only the attackers that slipped through; the FPR is what a
	// production operator pays for the defense: benign clients filtered
	// every round.

	// Output:
	// endpoint view:  acc_m=66.25% ASR=18.46% DPR=100.00%
	// detection view: TPR=0.000 FPR=0.261 precision=0.000 F1=0.000
	// ROC over dscore scores: AUC=0.322 TPR@1%FPR=0.000 (50 score pairs, reservoir 50)
	// audited 6 aggregations (0 zero-selection) over 60 updates, 14 malicious
	// audit journal sha256: cce5249082063557…
}

// percent renders a rate in percent, or N/A where it is undefined (NaN).
func percent(v float64) string {
	if math.IsNaN(v) {
		return "N/A"
	}
	return fmt.Sprintf("%.2f%%", v)
}
