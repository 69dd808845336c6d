package main

// Acceptance tests for the new scenario axes: flsim must reach the
// production-participation cells end-to-end (config → experiment →
// engine), deterministically, with a participation trace and a real final
// accuracy.

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
)

// tinyCell is a cell that exercises the full flsim pipeline in
// milliseconds.
func tinyCell() repro.Config {
	return repro.Config{
		Dataset:      "tiny-sim",
		Attack:       "signflip",
		Defense:      "mkrum",
		Beta:         0.5,
		Seed:         1,
		TotalClients: 10,
		PerRound:     4,
		Rounds:       4,
		EvalLimit:    40,
		SampleCount:  4,
		Parallel:     true,
	}
}

// TestBernoulliChurnFedAvgMCell pins the first acceptance scenario:
// Bernoulli sampling + dropout + FedAvgM runs end-to-end through the flsim
// entry point with a deterministic, internally consistent participation
// trace and a non-NaN final accuracy.
func TestBernoulliChurnFedAvgMCell(t *testing.T) {
	cfg := tinyCell()
	cfg.Sampler = "bernoulli"
	cfg.SampleRate = 0.5
	cfg.DropoutProb = 0.3
	cfg.StragglerProb = 0.1
	cfg.ServerOpt = "fedavgm"

	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.FinalAcc) {
		t.Fatal("final accuracy is NaN")
	}
	if len(out.Trace) != cfg.Rounds {
		t.Fatalf("trace has %d rounds, want %d", len(out.Trace), cfg.Rounds)
	}
	lost := 0
	for _, rs := range out.Trace {
		if rs.Responded != rs.Selected-rs.Dropped-rs.Straggled {
			t.Fatalf("round %d: inconsistent trace %+v", rs.Round, rs)
		}
		lost += rs.Dropped + rs.Straggled
	}
	if lost == 0 {
		t.Fatal("churn scenario produced no dropped/straggled clients")
	}

	again, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Trace, again.Trace) {
		t.Fatal("participation trace is not deterministic under a fixed seed")
	}
	if out.FinalAcc != again.FinalAcc {
		t.Fatal("final accuracy is not deterministic under a fixed seed")
	}
}

// TestAsyncBufferedCell pins the second acceptance scenario: an
// async-buffered cell runs end-to-end through the flsim entry point,
// aggregating on buffer fills, deterministically, with a non-NaN final
// accuracy.
func TestAsyncBufferedCell(t *testing.T) {
	cfg := tinyCell()
	cfg.AsyncBuffer = 3
	cfg.AsyncMaxDelay = 2

	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.FinalAcc) {
		t.Fatal("final accuracy is NaN")
	}
	totalAggs := 0
	for _, rs := range out.Trace {
		totalAggs += rs.Aggregations
	}
	if totalAggs == 0 {
		t.Fatal("async cell never aggregated")
	}

	again, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Trace, again.Trace) {
		t.Fatal("async trace is not deterministic under a fixed seed")
	}
}

// TestForensicsCell pins the forensics acceptance path end-to-end through
// the flsim entry point: -forensics plus -audit produce a detection
// summary that reconciles with the trace, a non-empty JSONL audit journal,
// and results bit-identical to the forensics-off twin.
func TestForensicsCell(t *testing.T) {
	cfg := tinyCell()
	cfg.AttackerFrac = 0.3
	cfg.Forensics = true
	watch := repro.Watch{AuditPath: filepath.Join(t.TempDir(), "audit.jsonl")}

	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{Watch: watch})
	if err != nil {
		t.Fatal(err)
	}
	d := out.Detection
	if d == nil {
		t.Fatal("forensics cell produced no detection summary")
	}
	if d.Aggregations != cfg.Rounds {
		t.Fatalf("audited %d aggregations, want %d", d.Aggregations, cfg.Rounds)
	}
	passed := 0
	for _, rs := range out.Trace {
		passed += rs.PassedMalicious
	}
	if d.Confusion.FN != passed {
		t.Fatalf("audit FN %d != trace passed-malicious %d", d.Confusion.FN, passed)
	}
	if fi, err := os.Stat(watch.AuditPath); err != nil || fi.Size() == 0 {
		t.Fatalf("audit journal missing or empty: %v", err)
	}

	off := cfg
	off.Forensics = false
	plain, err := repro.RunConfigOpts(off, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalAcc != out.FinalAcc || !reflect.DeepEqual(plain.Trace, out.Trace) {
		t.Fatal("forensics changed the run's results")
	}
}

// TestMillionClientPopulationCell pins the production-scale acceptance
// criterion end-to-end through the flsim entry point: a round over
// TotalClients = 1,000,000 virtual clients completes (shards materialized
// lazily for the participants only), with scattered sub-percent attacker
// placement and hierarchical aggregation, deterministically.
func TestMillionClientPopulationCell(t *testing.T) {
	cfg := tinyCell()
	cfg.TotalClients = 1000000
	cfg.PerRound = 6
	cfg.Rounds = 2
	cfg.AttackerFrac = 0.001
	cfg.Population = "virtual"
	cfg.Placement = "scatter"
	cfg.Groups = 2

	out, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.FinalAcc) {
		t.Fatal("final accuracy is NaN")
	}
	if len(out.Trace) != cfg.Rounds {
		t.Fatalf("trace has %d rounds, want %d", len(out.Trace), cfg.Rounds)
	}
	for _, rs := range out.Trace {
		if rs.Selected != cfg.PerRound {
			t.Fatalf("round %d selected %d clients, want %d", rs.Round, rs.Selected, cfg.PerRound)
		}
	}

	again, err := repro.RunConfigOpts(cfg, repro.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Trace, again.Trace) || out.FinalAcc != again.FinalAcc {
		t.Fatal("million-client cell is not deterministic under a fixed seed")
	}
}
