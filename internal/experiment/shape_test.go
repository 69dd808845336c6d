package experiment

// Shape tests: slower end-to-end checks that the reproduction exhibits the
// paper's qualitative claims on the real (non-tiny) fashion task. They pin
// two orderings the artifacts of the README's "Reproducing a paper
// artifact" section rest on: DFA-R cuts an undefended federation's
// accuracy (the attack premise of Table II, `flbench -exp table2`), and
// REFD recovers accuracy lost to DFA-G (§V, Fig. 10, `flbench -exp fig10`).

import (
	"testing"
)

func shapeCfg(attackName, defenseName string) Config {
	return Config{
		Dataset:     "fashion-sim",
		Attack:      attackName,
		Defense:     defenseName,
		Beta:        0.5,
		Seed:        7,
		Rounds:      8,
		EvalLimit:   250,
		SampleCount: 10,
		TrainN:      3000,
		Parallel:    true,
	}
}

// TestDFADegradesUndefendedFederation pins the paper's core capability: a
// data-free attacker with 20% of the clients substantially reduces the
// accuracy of an undefended federation.
func TestDFADegradesUndefendedFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	outs, err := NewRunner().RunGrid([]Config{shapeCfg("dfa-r", "fedavg")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	if out.ASR < 10 {
		t.Fatalf("DFA-R vs undefended FedAvg should reach ASR >= 10%%, got %.2f%% (clean %.1f%%, attacked %.1f%%)",
			out.ASR, out.CleanAcc*100, out.MaxAcc*100)
	}
}

// TestREFDBeatsNoDefenseUnderDFAG pins Section V: REFD recovers accuracy
// that an undefended federation loses to DFA-G.
func TestREFDBeatsNoDefenseUnderDFAG(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	outs, err := NewRunner().RunGrid([]Config{shapeCfg("dfa-g", "fedavg"), shapeCfg("dfa-g", "refd")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	undefended, defended := outs[0], outs[1]
	if defended.MaxAcc <= undefended.MaxAcc {
		t.Fatalf("REFD (%.1f%%) should beat no defense (%.1f%%) under DFA-G",
			defended.MaxAcc*100, undefended.MaxAcc*100)
	}
	// REFD should bring accuracy within striking distance of the clean
	// baseline (the paper reports near-clean accuracy).
	if defended.MaxAcc < 0.7*defended.CleanAcc {
		t.Fatalf("REFD accuracy %.1f%% too far below clean %.1f%%",
			defended.MaxAcc*100, defended.CleanAcc*100)
	}
}

// TestFoolsGoldPlumbing exercises the extension defense end to end,
// including the Sybil-evasion perturbation plumbed through the config.
func TestFoolsGoldPlumbing(t *testing.T) {
	cfg := tinyCfg("dfa-g", "foolsgold")
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc < 0 || out.MaxAcc > 1 {
		t.Fatalf("accuracy %v out of range", out.MaxAcc)
	}
	cfg.PerturbStd = 1e-3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
