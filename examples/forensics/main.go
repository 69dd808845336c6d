// Example forensics: auditing every defense decision and reading the
// detection-quality metrics the endpoint numbers hide.
//
// The paper scores defenses by DPR and accuracy, but two defenses with the
// same DPR can behave very differently in production: one filters exactly
// the attackers, the other filters half its benign clients along with
// them. This example runs a Min-Max/REFD cell with the forensics
// subsystem attached: every update is fingerprinted (norm, cosine to the
// round mean, neighbour distances), every accept/reject decision is
// joined against ground truth, and the streaming metrics engine maintains
// TPR/FPR/F1 plus ROC AUC over REFD's D-scores — the Shejwalkar-style
// detection view. The same data is written to a JSONL audit journal and,
// in a real run, can be served live over HTTP (flsim -ops-addr, under
// /forensics/).
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	auditPath := filepath.Join(os.TempDir(), "forensics-example-audit.jsonl")
	_ = os.Remove(auditPath) // the example reruns from scratch

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

	na := func(v float64) string {
		if math.IsNaN(v) {
			return "N/A"
		}
		return fmt.Sprintf("%.3f", v)
	}
	dpr := "N/A"
	if !math.IsNaN(out.DPR) {
		dpr = fmt.Sprintf("%.2f%%", out.DPR)
	}
	fmt.Printf("cell: %s vs %s, %g%% attackers\n", cfg.Attack, cfg.Defense, cfg.AttackerFrac*100)
	fmt.Printf("endpoint view:  acc_m=%.2f%% ASR=%.2f%% DPR=%s\n", out.MaxAcc*100, out.ASR, dpr)

	d := out.Detection
	if d == nil {
		log.Fatal("forensics summary missing")
	}
	fmt.Printf("detection view: TPR=%s FPR=%s precision=%s F1=%s\n",
		na(d.TPR), na(d.FPR), na(d.Precision), na(d.F1))
	fmt.Printf("ROC over %s scores: AUC=%s TPR@1%%FPR=%s (%d score pairs, reservoir %d)\n",
		d.ScoreName, na(d.AUC), na(d.TPRAt1FPR), d.ScorePairs, d.ReservoirLen)
	fmt.Printf("audited %d aggregations (%d zero-selection) over %d updates, %d malicious\n",
		d.Aggregations, d.ZeroSelectionRounds, d.Updates, d.MaliciousSeen)
	if fi, err := os.Stat(auditPath); err == nil {
		fmt.Printf("audit journal: %s (%d bytes of per-update fingerprints + decisions)\n", auditPath, fi.Size())
	}
	fmt.Println("note: DPR only counts attackers that slipped through; the FPR column above is what")
	fmt.Println("a production operator pays for the defense — benign clients filtered every round.")
}
