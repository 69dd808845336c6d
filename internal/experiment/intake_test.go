package experiment

import (
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestDFAPassesIntake answers "does DFA pass the engine's intake?" on the
// paper's Fig. 4 cell shape (fashion-sim, N = 100, K = 10, 20 % attackers,
// mKrum): every update DFA-R and DFA-G craft is finite, of the model's
// dimension and reports a plausible sample count, so the intake refuses
// none and every crafted update reaches the defense.
func TestDFAPassesIntake(t *testing.T) {
	for _, atk := range []string{"dfa-r", "dfa-g"} {
		t.Run(atk, func(t *testing.T) {
			cfg := Config{
				Dataset: "fashion-sim", Attack: atk, Defense: "mkrum", Beta: 0.5, Seed: 1,
				TotalClients: 100, PerRound: 10, Rounds: 20, EvalLimit: 320, SampleCount: 20,
				AttackerFrac: 0.2, Parallel: true,
			}
			p := openTestPlane(t, Watch{TraceJournal: filepath.Join(t.TempDir(), "spans.jsonl")})
			out, err := run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			crafted := 0
			for _, rs := range out.Trace {
				crafted += rs.SelectedMalicious
				if rs.Responded != rs.Selected {
					t.Errorf("round %d: %d of %d selected updates admitted", rs.Round, rs.Responded, rs.Selected)
				}
			}
			if crafted == 0 {
				t.Fatal("no attacker was selected")
			}
			for r := telemetry.IntakeNonFinite; r <= telemetry.IntakeSamples; r++ {
				if n := p.Registry().Counter("fl_updates_rejected_total", "", telemetry.Label{Key: "reason", Value: r.Name()}).Value(); n != 0 {
					t.Errorf("intake refused %d updates as %s", n, r.Name())
				}
			}
			t.Logf("%s under mkrum: %d crafted updates, 0 refused by intake, DPR %.1f%%", atk, crafted, out.DPR)
		})
	}
}
