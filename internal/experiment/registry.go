package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible unit of the paper's evaluation: a table or
// figure, mapped to the grid of runs that regenerates it.
type Experiment struct {
	// ID is the registry key ("table2", "fig5", …).
	ID string
	// Title names the paper artifact.
	Title string
	// Run executes the experiment under the profile and writes the rows the
	// paper reports.
	Run func(r *Runner, p Profile, w io.Writer) error
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table II: ASR and max accuracy per dataset/defense/attack (β=0.5, 20% attackers)", Run: runTable2},
		{ID: "fig4", Title: "Fig. 4: Defense pass rate (DPR) on mKrum and Bulyan (β=0.5)", Run: runFig4},
		{ID: "fig5", Title: "Fig. 5: ASR vs data heterogeneity β under Bulyan", Run: runFig5},
		{ID: "fig6", Title: "Fig. 6: ASR vs attacker proportion on mKrum and TRmean (Fashion)", Run: runFig6},
		{ID: "fig7", Title: "Fig. 7: DFA local synthesis loss per epoch (Fashion)", Run: runFig7},
		{ID: "table3", Title: "Table III: static vs trained synthesis (ASR/DPR)", Run: runTable3},
		{ID: "table4", Title: "Table IV: distance-regularization ablation (ASR/DPR, Fashion)", Run: runTable4},
		{ID: "fig8", Title: "Fig. 8: synthetic vs real attacker data (ASR)", Run: runFig8},
		{ID: "fig9", Title: "Fig. 9: REFD vs Bulyan accuracy under DFA across heterogeneity", Run: runFig9},
		{ID: "fig10", Title: "Fig. 10: accuracy of all defenses (incl. REFD) against all attacks (β=0.5)", Run: runFig10},
		{ID: "randomweights", Title: "§III-B: random-weights attack DPR (motivating experiment)", Run: runRandomWeights},
		{ID: "samplesize", Title: "§IV-A: |S| sensitivity of DFA (Fashion, mKrum)", Run: runSampleSize},
		{ID: "sybil", Title: "§III-A extension: DFA vs the FoolsGold Sybil defense, with and without perturbation noise", Run: runSybil},
		{ID: "adaptivealpha", Title: "§V extension: fixed vs adaptive REFD α (the paper's future-work direction)", Run: runAdaptiveAlpha},
		{ID: "participation", Title: "Production extension: DFA-R vs mKrum under cross-device participation (sampler × churn × server optimizer × sync/async)", Run: runParticipation},
		{ID: "productionscale", Title: "Production extension: attacker dilution at cross-device scale (100k-client lazy population, attacker fraction × topology × attack, mKrum)", Run: runProductionScale},
		{ID: "detection", Title: "Forensics extension: detection quality (AUC, TPR@1%FPR) of every defense across attacks and attacker fractions on a 100k-client population", Run: runDetection},
		{ID: "compression", Title: "Transport extension: update compression (fp16/int8/top-k+EF) × attack × defense — does compressed-domain robust aggregation keep its detection quality?", Run: runCompression},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Canonical component lists of the evaluation section.
var (
	paperDatasets = []string{"fashion-sim", "cifar-sim", "svhn-sim"}
	paperDefenses = []string{"mkrum", "bulyan", "trmean", "median"}
	paperAttacks  = []string{"fang", "lie", "minmax", "dfa-r", "dfa-g"}
)

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "N/A"
	}
	return fmt.Sprintf("%.2f", v)
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

func runTable2(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, ds := range paperDatasets {
		for _, def := range paperDefenses {
			for _, atk := range paperAttacks {
				cfgs = append(cfgs, p.Base(ds, atk, def, 0.5))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tdefense\tattack\tclean_acc%\tacc_m%\tASR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\t%s\n",
			o.Config.Dataset, o.Config.Defense, o.Config.Attack,
			o.CleanAcc*100, o.MaxAcc*100, fmtPct(o.ASR))
	}
	return tw.Flush()
}

func runFig4(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, ds := range paperDatasets {
		for _, def := range []string{"mkrum", "bulyan"} {
			for _, atk := range paperAttacks {
				cfgs = append(cfgs, p.Base(ds, atk, def, 0.5))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tdefense\tattack\tDPR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
			o.Config.Dataset, o.Config.Defense, o.Config.Attack, fmtPct(o.DPR))
	}
	return tw.Flush()
}

func runFig5(r *Runner, p Profile, w io.Writer) error {
	betas := []float64{0.1, 0.5, 0.9}
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, beta := range betas {
			for _, atk := range paperAttacks {
				cfgs = append(cfgs, p.Base(ds, atk, "bulyan", beta))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tattack\tbeta\tASR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%s\n",
			o.Config.Dataset, o.Config.Attack, o.Config.Beta, fmtPct(o.ASR))
	}
	return tw.Flush()
}

func runFig6(r *Runner, p Profile, w io.Writer) error {
	fracs := []float64{0.1, 0.2, 0.3}
	var cfgs []Config
	for _, def := range []string{"mkrum", "trmean"} {
		for _, frac := range fracs {
			for _, atk := range paperAttacks {
				cfg := p.Base("fashion-sim", atk, def, 0.5)
				cfg.AttackerFrac = frac
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "defense\tattack\tattacker%\tASR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%s\n",
			o.Config.Defense, o.Config.Attack, o.Config.AttackerFrac*100, fmtPct(o.ASR))
	}
	return tw.Flush()
}

func runFig7(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, atk := range []string{"dfa-r", "dfa-g"} {
		for _, def := range paperDefenses {
			cfgs = append(cfgs, p.Base("fashion-sim", atk, def, 0.5))
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "attack\tdefense\tepoch\tmean_synthesis_loss")
	for _, o := range outs {
		if len(o.SynthesisLoss) == 0 {
			continue
		}
		epochs := len(o.SynthesisLoss[0])
		for e := 0; e < epochs; e++ {
			sum, n := 0.0, 0
			for _, round := range o.SynthesisLoss {
				if e < len(round) {
					sum += round[e]
					n++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\n", o.Config.Attack, o.Config.Defense, e+1, sum/float64(n))
		}
	}
	return tw.Flush()
}

func runTable3(r *Runner, p Profile, w io.Writer) error {
	attacks := []string{"dfa-r", "dfa-r-static", "dfa-g", "dfa-g-static"}
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, atk := range attacks {
			for _, def := range paperDefenses {
				cfgs = append(cfgs, p.Base(ds, atk, def, 0.5))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tattack\tvariant\tdefense\tASR%\tDPR%")
	for _, o := range outs {
		variant := "trained"
		name := o.Config.Attack
		if len(name) > 7 && name[len(name)-7:] == "-static" {
			variant = "static"
			name = name[:len(name)-7]
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			o.Config.Dataset, name, variant, o.Config.Defense, fmtPct(o.ASR), fmtPct(o.DPR))
	}
	return tw.Flush()
}

func runTable4(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, atk := range []string{"dfa-r", "dfa-g"} {
		for _, noReg := range []bool{false, true} {
			for _, def := range paperDefenses {
				cfg := p.Base("fashion-sim", atk, def, 0.5)
				cfg.NoReg = noReg
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "attack\tregularization\tdefense\tASR%\tDPR%")
	for _, o := range outs {
		reg := "with"
		if o.Config.NoReg {
			reg = "without"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			o.Config.Attack, reg, o.Config.Defense, fmtPct(o.ASR), fmtPct(o.DPR))
	}
	return tw.Flush()
}

func runFig8(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, atk := range []string{"dfa-r", "dfa-g", "real-data"} {
			for _, def := range paperDefenses {
				cfgs = append(cfgs, p.Base(ds, atk, def, 0.5))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tattack\tdefense\tASR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
			o.Config.Dataset, o.Config.Attack, o.Config.Defense, fmtPct(o.ASR))
	}
	return tw.Flush()
}

func runFig9(r *Runner, p Profile, w io.Writer) error {
	// Beta 0 encodes the i.i.d. setting.
	betas := []float64{0, 0.9, 0.5, 0.1}
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, atk := range []string{"dfa-r", "dfa-g"} {
			for _, def := range []string{"bulyan", "refd"} {
				for _, beta := range betas {
					cfgs = append(cfgs, p.Base(ds, atk, def, beta))
				}
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tattack\tdefense\theterogeneity\tacc_m%\tclean_acc%")
	for _, o := range outs {
		het := fmt.Sprintf("beta=%.1f", o.Config.Beta)
		if o.Config.Beta == 0 {
			het = "iid"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%.2f\n",
			o.Config.Dataset, o.Config.Attack, o.Config.Defense, het, o.MaxAcc*100, o.CleanAcc*100)
	}
	return tw.Flush()
}

func runFig10(r *Runner, p Profile, w io.Writer) error {
	defenses := append(append([]string{}, paperDefenses...), "refd")
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, atk := range paperAttacks {
			for _, def := range defenses {
				cfgs = append(cfgs, p.Base(ds, atk, def, 0.5))
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tattack\tdefense\tacc_m%\tclean_acc%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\n",
			o.Config.Dataset, o.Config.Attack, o.Config.Defense, o.MaxAcc*100, o.CleanAcc*100)
	}
	return tw.Flush()
}

func runRandomWeights(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, ds := range []string{"fashion-sim", "cifar-sim"} {
		for _, def := range []string{"mkrum", "bulyan"} {
			cfgs = append(cfgs, p.Base(ds, "random", def, 0.5))
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\tdefense\tDPR%\tASR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
			o.Config.Dataset, o.Config.Defense, fmtPct(o.DPR), fmtPct(o.ASR))
	}
	return tw.Flush()
}

// runSybil reproduces the Section III-A claim that Sybil defenses such as
// FoolsGold are easily circumvented by adding small perturbation noise to
// the attackers' otherwise identical updates.
func runSybil(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, atk := range []string{"dfa-r", "dfa-g"} {
		for _, perturb := range []float64{0, 1e-3} {
			cfg := p.Base("fashion-sim", atk, "foolsgold", 0.5)
			cfg.PerturbStd = perturb
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "attack\tperturbation\tASR%\tDPR%")
	for _, o := range outs {
		mode := "identical updates"
		if o.Config.PerturbStd > 0 {
			mode = fmt.Sprintf("noise std %g", o.Config.PerturbStd)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
			o.Config.Attack, mode, fmtPct(o.ASR), fmtPct(o.DPR))
	}
	return tw.Flush()
}

// runAdaptiveAlpha compares REFD with its fixed α = 1 against the adaptive-α
// variant the paper names as future work, across the attack spectrum.
func runAdaptiveAlpha(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	attacks := []string{"lie", "minmax", "dfa-r", "dfa-g"}
	for _, atk := range attacks {
		for _, def := range []string{"refd", "refd-adaptive"} {
			cfgs = append(cfgs, p.Base("fashion-sim", atk, def, 0.5))
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "attack\tdefense\tacc_m%\tASR%\tDPR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\n",
			o.Config.Attack, o.Config.Defense, o.MaxAcc*100, fmtPct(o.ASR), fmtPct(o.DPR))
	}
	return tw.Flush()
}

// participationScenarios are the named production-participation cells the
// engine exposes; each mutates the paper's base fashion/DFA-R/mKrum cell.
var participationScenarios = []struct {
	Name string
	Mut  func(*Config)
}{
	{"sync-uniform", func(*Config) {}},
	{"bernoulli", func(c *Config) { c.Sampler = "bernoulli" }},
	{"bernoulli-churn", func(c *Config) {
		c.Sampler = "bernoulli"
		c.DropoutProb = 0.2
		c.StragglerProb = 0.1
	}},
	{"churn-fedavgm", func(c *Config) {
		c.DropoutProb = 0.2
		c.StragglerProb = 0.1
		c.ServerOpt = "fedavgm"
	}},
	{"async-b5", func(c *Config) { c.AsyncBuffer = 5; c.AsyncMaxDelay = 2 }},
	{"weighted-quantity", func(c *Config) {
		c.Sampler = "weighted"
		c.Partition = "quantity"
	}},
}

func runParticipation(r *Runner, p Profile, w io.Writer) error {
	var cfgs []Config
	for _, sc := range participationScenarios {
		cfg := p.Base("fashion-sim", "dfa-r", "mkrum", 0.5)
		sc.Mut(&cfg)
		cfgs = append(cfgs, cfg)
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "scenario\tclean_acc%\tacc_m%\tASR%\tDPR%\tmean_responded")
	for i, o := range outs {
		responded, rounds := 0, 0
		for _, rs := range o.Trace {
			responded += rs.Responded
			rounds++
		}
		mean := 0.0
		if rounds > 0 {
			mean = float64(responded) / float64(rounds)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\t%s\t%.1f\n",
			participationScenarios[i].Name, o.CleanAcc*100, o.MaxAcc*100,
			fmtPct(o.ASR), fmtPct(o.DPR), mean)
	}
	return tw.Flush()
}

// productionScaleTopologies are the aggregation topologies of the
// productionscale sweep: the paper's flat server and a 5-group hierarchical
// tier (each group runs mKrum over ~10 updates, the server runs mKrum over
// the 5 group aggregates).
var productionScaleTopologies = []struct {
	Name   string
	Groups int
}{
	{"flat", 0},
	{"hier-5", 5},
}

// runProductionScale sweeps attacker fraction × topology × attack over a
// 100,000-client virtual population with scattered attacker placement —
// the Shejwalkar et al. production regime (tiny per-round samples, attacker
// fractions down to 0.01%) the paper's 100-client/20% setup cannot express.
// Shards are materialized lazily, so the sweep's memory stays O(PerRound).
func runProductionScale(r *Runner, p Profile, w io.Writer) error {
	fracs := []float64{0.2, 0.01, 0.001, 0.0001}
	attacks := []string{"dfa-r", "minmax", "labelflip"}
	var cfgs []Config
	for _, frac := range fracs {
		for _, topo := range productionScaleTopologies {
			for _, atk := range attacks {
				cfg := p.Base("fashion-sim", atk, "mkrum", 0.5)
				cfg.TotalClients = 100000
				cfg.PerRound = 50
				cfg.AttackerFrac = frac
				cfg.Population = "virtual"
				cfg.Placement = "scatter"
				cfg.Groups = topo.Groups
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "attacker%\ttopology\tattack\tclean_acc%\tacc_m%\tASR%\tDPR%\tsel_malicious")
	for _, o := range outs {
		selMal := 0
		for _, rs := range o.Trace {
			selMal += rs.SelectedMalicious
		}
		topo := "flat"
		if o.Config.Groups > 0 {
			topo = fmt.Sprintf("hier-%d", o.Config.Groups)
		}
		fmt.Fprintf(tw, "%g\t%s\t%s\t%.2f\t%.2f\t%s\t%s\t%d\n",
			o.Config.AttackerFrac*100, topo, o.Config.Attack,
			o.CleanAcc*100, o.MaxAcc*100, fmtPct(o.ASR), fmtPct(o.DPR), selMal)
	}
	return tw.Flush()
}

// runDetection is the forensics scoreboard sweep: every score-producing or
// selection-reporting defense against the strongest data-free and
// data-holding attacks, from the paper's 20% attacker regime down to the
// 0.1% production regime on a 100,000-client lazy population with
// scattered placement. Endpoint metrics (DPR) stay in the table so the
// Shejwalkar-style detection view (AUC, TPR@1%FPR, TPR/FPR) can be read
// against them: a defense can look strong on DPR while filtering half its
// benign clients, and only the FPR column shows it.
func runDetection(r *Runner, p Profile, w io.Writer) error {
	fracs := []float64{0.2, 0.01, 0.001}
	attacks := []string{"dfa-r", "minmax", "labelflip"}
	defenses := []string{"refd", "mkrum", "foolsgold", "bulyan"}
	var cfgs []Config
	for _, frac := range fracs {
		for _, def := range defenses {
			for _, atk := range attacks {
				cfg := p.Base("fashion-sim", atk, def, 0.5)
				cfg.TotalClients = 100000
				cfg.PerRound = 50
				cfg.AttackerFrac = frac
				cfg.Population = "virtual"
				cfg.Placement = "scatter"
				cfg.Forensics = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "attacker%%\tdefense\tattack\tAUC\tTPR@1%%FPR\tTPR%%\tFPR%%\tDPR%%\tzero_sel\n")
	for _, o := range outs {
		auc, tprAt, tpr, fpr := math.NaN(), math.NaN(), math.NaN(), math.NaN()
		zeroSel := 0
		if d := o.Detection; d != nil {
			auc, tprAt = d.AUC, d.TPRAt1FPR
			tpr, fpr = d.TPR*100, d.FPR*100
			zeroSel = d.ZeroSelectionRounds
		}
		fmt.Fprintf(tw, "%g\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
			o.Config.AttackerFrac*100, o.Config.Defense, o.Config.Attack,
			fmtPct(auc), fmtPct(tprAt), fmtPct(tpr), fmtPct(fpr), fmtPct(o.DPR), zeroSel)
	}
	return tw.Flush()
}

// compressionCodecs are the wire configurations of the compression sweep:
// the uncompressed control, half-precision deltas, dense stochastic int8,
// and the aggressive production point — int8 with 10% top-k sparsification
// and error feedback.
var compressionCodecs = []struct {
	Name string
	Mut  func(*Config)
}{
	{"off", func(*Config) {}},
	{"fp16", func(c *Config) { c.Codec = "fp16" }},
	{"int8", func(c *Config) { c.Codec = "int8" }},
	{"int8-top10-ef", func(c *Config) {
		c.Codec = "int8"
		c.TopK = 0.1
		c.ErrorFeedback = true
	}},
}

// runCompression sweeps codec × attack × defense with forensics enabled:
// the question is whether lossy update compression degrades the server's
// ability to tell attackers from benign clients (AUC, TPR@1%FPR) or shifts
// the endpoint metrics (ASR, DPR) — the robust rules aggregate from
// codec reconstructions, with their pairwise geometry computed in the
// compressed domain where the round's frames allow it.
func runCompression(r *Runner, p Profile, w io.Writer) error {
	attacks := []string{"dfa-r", "minmax", "labelflip"}
	defenses := []string{"refd", "mkrum", "foolsgold"}
	var cfgs []Config
	for _, cdc := range compressionCodecs {
		for _, def := range defenses {
			for _, atk := range attacks {
				cfg := p.Base("fashion-sim", atk, def, 0.5)
				cfg.Forensics = true
				cdc.Mut(&cfg)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "codec\tdefense\tattack\tAUC\tTPR@1%%FPR\tASR%%\tDPR%%\tacc_m%%\n")
	for i, o := range outs {
		auc, tprAt := math.NaN(), math.NaN()
		if d := o.Detection; d != nil {
			auc, tprAt = d.AUC, d.TPRAt1FPR
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.2f\n",
			compressionCodecs[i/(len(attacks)*len(defenses))].Name,
			o.Config.Defense, o.Config.Attack,
			fmtPct(auc), fmtPct(tprAt), fmtPct(o.ASR), fmtPct(o.DPR), o.MaxAcc*100)
	}
	return tw.Flush()
}

func runSampleSize(r *Runner, p Profile, w io.Writer) error {
	sizes := []int{20, 50, 100}
	var cfgs []Config
	for _, atk := range []string{"dfa-r", "dfa-g"} {
		for _, s := range sizes {
			cfg := p.Base("fashion-sim", atk, "mkrum", 0.5)
			cfg.SampleCount = s
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := r.RunGrid(cfgs, p.Workers)
	if err != nil {
		return err
	}
	sort.SliceStable(outs, func(i, j int) bool {
		if outs[i].Config.Attack != outs[j].Config.Attack {
			return outs[i].Config.Attack < outs[j].Config.Attack
		}
		return outs[i].Config.SampleCount < outs[j].Config.SampleCount
	})
	tw := newTab(w)
	fmt.Fprintln(tw, "attack\t|S|\tASR%\tDPR%")
	for _, o := range outs {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n",
			o.Config.Attack, o.Config.SampleCount, fmtPct(o.ASR), fmtPct(o.DPR))
	}
	return tw.Flush()
}
