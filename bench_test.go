// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding named experiment end to end —
// dataset synthesis, federated training with the attack and defense grid of
// that artifact, and metric computation — and prints the paper-style rows
// on the first iteration.
//
// Profiles: REPRO_PROFILE=quick (default) keeps every structural parameter
// of the paper (100 clients, 10 per round, 20% attackers, Dirichlet
// heterogeneity) while shrinking per-round synthesis work; REPRO_PROFILE=full
// uses the paper's |S| = 50, 3-seed averaging and the full test sets.
package repro_test

import (
	"io"
	"os"
	"testing"

	"repro"
)

func benchProfile() string {
	if p := os.Getenv("REPRO_PROFILE"); p != "" {
		return p
	}
	return "quick"
}

// benchExperiment runs one named paper artifact per iteration, emitting its
// rows to stdout on the first iteration so bench logs double as the
// reproduction record.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if i == 0 {
			w = os.Stdout
		}
		if err := repro.RunExperimentOpts([]string{id}, repro.RunOptions{Profile: benchProfile()}, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II: ASR and maximum accuracy for every
// dataset × defense × attack cell at β = 0.5 with 20% attackers.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure4 regenerates Fig. 4: defense pass rates on the
// selection-based defenses (mKrum, Bulyan) for all datasets and attacks.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates Fig. 5: ASR as a function of the Dirichlet
// heterogeneity β under Bulyan on Fashion and CIFAR.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates Fig. 6: ASR as a function of the attacker
// proportion (10/20/30%) under mKrum and TRmean on Fashion.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates Fig. 7: the per-epoch convergence of the DFA
// synthesis objectives during local training.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable3 regenerates Table III: trained vs static (non-trained)
// synthesis ablation of both DFA variants.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table IV: the distance-based regularization
// ablation of Eq. 3.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure8 regenerates Fig. 8: DFA's synthetic data vs an attacker
// training on real data.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates Fig. 9: REFD vs Bulyan accuracy under both
// DFA variants across heterogeneity levels (i.i.d. and β = 0.9/0.5/0.1).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates Fig. 10: global model accuracy of all five
// defenses (including REFD) against all five attacks.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkRandomWeights regenerates the Section III-B motivating
// experiment: the naive random-weights attack almost never passes the
// selection defenses.
func BenchmarkRandomWeights(b *testing.B) { benchExperiment(b, "randomweights") }

// BenchmarkSampleSize regenerates the Section IV-A |S| sensitivity check
// (|S| ∈ {20, 50, 100}).
func BenchmarkSampleSize(b *testing.B) { benchExperiment(b, "samplesize") }

// BenchmarkSybilEvasion runs the Section III-A extension: DFA against the
// FoolsGold Sybil defense with identical vs noise-perturbed attacker copies.
func BenchmarkSybilEvasion(b *testing.B) { benchExperiment(b, "sybil") }

// BenchmarkAdaptiveAlpha runs the Section V future-work extension: REFD's
// fixed α = 1 vs the per-round adaptive α.
func BenchmarkAdaptiveAlpha(b *testing.B) { benchExperiment(b, "adaptivealpha") }
