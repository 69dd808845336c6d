package experiment

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"text/tabwriter"
)

// Experiment is one reproducible unit of the paper's evaluation, declared
// as data: the grid of runs that regenerates a table or figure, the columns
// that print it, and the orderings the paper reads off it.
type Experiment struct {
	// ID is the registry key ("table2", "fig5", …).
	ID string
	// Title names the paper artifact.
	Title string
	// Grid lists the runs under a profile, in table-row order.
	Grid func(Profile) []Config
	// Columns print one table row per grid cell.
	Columns []Column
	// Claims are the orderings the paper reads off the table; Run prints a
	// verdict for each after it.
	Claims []Claim
	// render, when non-nil, replaces the one-row-per-cell table: Fig. 7
	// prints one row per synthesis epoch.
	render func(w io.Writer, cols []Column, outs []*Outcome)
}

// Column is a header plus a cell formatter. A key column formats the row's
// Config and identifies the row; claims name rows by key-column values. A
// value column formats what the run measured.
type Column struct {
	Header string
	Key    func(Config) string
	Value  func(*Outcome) string
}

// Cell names a table row by the values its key columns print, header →
// value, e.g. {"attack": "dfa-r", "defense": "mkrum"}.
type Cell map[string]string

// Metric is the quantity a claim orders.
type Metric struct {
	Name string
	Of   func(*Outcome) float64
}

// Claim is one ordering the paper reads off a table: Metric(Hi) >
// Metric(Lo). Each side is the row named by Shared plus its own key values,
// or, when its own values are nil, the constant Bound. A side must match
// exactly one row, and a NaN metric fails the claim.
type Claim struct {
	Metric Metric
	Shared Cell
	Hi, Lo Cell
	Bound  float64
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	return []Experiment{table2, fig4, fig5, fig6, fig7, table3, table4, fig8, fig9, fig10,
		randomWeights, sampleSize, sybil, adaptiveAlpha, participation, productionScale, detection, compression}
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

// Run drains the grid under p, prints the table, then one verdict line per
// claim. A failing claim is printed, not returned: the table is the
// artifact, and its verdicts are read beside it.
func (e Experiment) Run(r *Runner, p Profile, w io.Writer) error {
	outs, err := r.RunGrid(e.Grid(p), 0)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	if e.render != nil {
		e.render(tw, e.Columns, outs)
	} else {
		fmt.Fprintln(tw, header(e.Columns))
		for _, o := range outs {
			fmt.Fprintln(tw, row(e.Columns, o))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, c := range e.Claims {
		line, _ := e.verdict(c, outs)
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

func header(cols []Column) string {
	hs := make([]string, len(cols))
	for i, c := range cols {
		hs[i] = c.Header
	}
	return strings.Join(hs, "\t")
}

func row(cols []Column, o *Outcome) string {
	cells := make([]string, len(cols))
	for i, c := range cols {
		if c.Key != nil {
			cells[i] = c.Key(o.Config)
		} else {
			cells[i] = c.Value(o)
		}
	}
	return strings.Join(cells, "\t")
}

// describe renders a claim in the table's column order, for example
// "claim: DPR dfa-r > fang (fashion-sim, mkrum)". A constant on the high
// side reads as an upper bound: "claim: DPR bulyan < 1 (fashion-sim)".
func (e Experiment) describe(c Claim) string {
	hi, lo := strings.Join(e.values(c.Hi), " "), strings.Join(e.values(c.Lo), " ")
	bound := fmt.Sprintf("%g", c.Bound)
	line := "claim: " + c.Metric.Name + " "
	switch {
	case c.Hi == nil:
		line += lo + " < " + bound
	case c.Lo == nil:
		line += hi + " > " + bound
	default:
		line += hi + " > " + lo
	}
	if shared := e.values(c.Shared); len(shared) > 0 {
		line += " (" + strings.Join(shared, ", ") + ")"
	}
	return line
}

// verdict checks c against the outcomes and renders it with its numbers,
// for example "claim: DPR dfa-r > fang (fashion-sim, mkrum) holds (80.95 >
// 19.05)".
func (e Experiment) verdict(c Claim, outs []*Outcome) (string, bool) {
	line := e.describe(c)
	a, errA := e.side(c, c.Hi, outs)
	b, errB := e.side(c, c.Lo, outs)
	if err := cmp.Or(errA, errB); err != nil {
		return line + " fails (" + err.Error() + ")", false
	}
	holds := a > b // false when either is NaN
	verdict, nums := "fails", fmtPct(a)+" > "+fmtPct(b)
	if holds {
		verdict = "holds"
	}
	if c.Hi == nil {
		nums = fmtPct(b) + " < " + fmtPct(a)
	}
	return line + " " + verdict + " (" + nums + ")", holds
}

// side resolves one side of c: the constant Bound when own is nil, else the
// metric of the one row Shared and own name.
func (e Experiment) side(c Claim, own Cell, outs []*Outcome) (float64, error) {
	if own == nil {
		return c.Bound, nil
	}
	rows := e.rows(c, own, outs)
	if len(rows) != 1 {
		return 0, fmt.Errorf("%v matches %d rows", own, len(rows))
	}
	return c.Metric.Of(rows[0]), nil
}

// rows returns the outcomes whose key columns print every value of Shared
// and own.
func (e Experiment) rows(c Claim, own Cell, outs []*Outcome) []*Outcome {
	var found []*Outcome
	for _, o := range outs {
		if e.matches(o, c.Shared) && e.matches(o, own) {
			found = append(found, o)
		}
	}
	return found
}

func (e Experiment) matches(o *Outcome, cell Cell) bool {
	for h, v := range cell {
		if !slices.ContainsFunc(e.Columns, func(c Column) bool {
			return c.Header == h && c.Key != nil && c.Key(o.Config) == v
		}) {
			return false
		}
	}
	return true
}

// values lists a cell's values in column order.
func (e Experiment) values(cell Cell) []string {
	var vs []string
	for _, c := range e.Columns {
		if v, ok := cell[c.Header]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "N/A"
	}
	return fmt.Sprintf("%.2f", v)
}

// Metrics claims order.
var (
	asr  = Metric{"ASR", func(o *Outcome) float64 { return o.ASR }}
	dpr  = Metric{"DPR", func(o *Outcome) float64 { return o.DPR }}
	accM = Metric{"acc_m", func(o *Outcome) float64 { return o.MaxAcc * 100 }}
)

func key(h string, f func(Config) string) Column     { return Column{Header: h, Key: f} }
func value(h string, f func(*Outcome) string) Column { return Column{Header: h, Value: f} }

func pct(f func(*Outcome) float64) func(*Outcome) string {
	return func(o *Outcome) string { return fmtPct(f(o)) }
}

// detected reads one detection-quality number; NaN without forensics.
func detected(f func(*Outcome) float64) func(*Outcome) string {
	return pct(func(o *Outcome) float64 {
		if o.Detection == nil {
			return math.NaN()
		}
		return f(o)
	})
}

// The shared columns, written once.
var (
	colDataset  = key("dataset", func(c Config) string { return c.Dataset })
	colAttack   = key("attack", func(c Config) string { return c.Attack })
	colDefense  = key("defense", func(c Config) string { return c.Defense })
	colAttacker = key("attacker%", func(c Config) string { return fmt.Sprintf("%g", c.AttackerFrac*100) })
	colClean    = value("clean_acc%", pct(func(o *Outcome) float64 { return o.CleanAcc * 100 }))
	colAccM     = value("acc_m%", pct(accM.Of))
	colASR      = value("ASR%", pct(asr.Of))
	colDPR      = value("DPR%", pct(dpr.Of))
	colAUC      = value("AUC", detected(func(o *Outcome) float64 { return o.Detection.AUC }))
	colTPRAt    = value("TPR@1%FPR", detected(func(o *Outcome) float64 { return o.Detection.TPRAt1FPR }))
)

// axis is one dimension of a grid: each entry derives one variant of a
// cell.
type axis []func(*Config)

// each builds an axis that sets one field to each of vs.
func each[T any](vs []T, set func(*Config, T)) axis {
	a := make(axis, len(vs))
	for i, v := range vs {
		a[i] = func(c *Config) { set(c, v) }
	}
	return a
}

func datasets(vs ...string) axis { return each(vs, func(c *Config, v string) { c.Dataset = v }) }
func attacks(vs ...string) axis  { return each(vs, func(c *Config, v string) { c.Attack = v }) }
func defenses(vs ...string) axis { return each(vs, func(c *Config, v string) { c.Defense = v }) }
func betas(vs ...float64) axis   { return each(vs, func(c *Config, v float64) { c.Beta = v }) }
func fractions(vs ...float64) axis {
	return each(vs, func(c *Config, v float64) { c.AttackerFrac = v })
}

// grid is the product of the axes over the profile's fashion-sim β = 0.5
// base cell: one Config per combination, the first axis outermost.
func grid(axes ...axis) func(Profile) []Config {
	return func(p Profile) []Config {
		cfgs := []Config{p.Base("fashion-sim", "", "", 0.5)}
		for _, ax := range axes {
			next := make([]Config, 0, len(cfgs)*len(ax))
			for _, c := range cfgs {
				for _, set := range ax {
					d := c
					set(&d)
					next = append(next, d)
				}
			}
			cfgs = next
		}
		return cfgs
	}
}

// Canonical component axes of the evaluation section.
var (
	paperDatasets = datasets("fashion-sim", "cifar-sim", "svhn-sim")
	paperDefenses = defenses("mkrum", "bulyan", "trmean", "median")
	paperAttacks  = attacks("fang", "lie", "minmax", "dfa-r", "dfa-g")
	twoDatasets   = datasets("fashion-sim", "cifar-sim")
	dfa           = attacks("dfa-r", "dfa-g")
)

// virtual100k is the production population of the cross-device sweeps: a
// 100,000-client lazy population, 50 per round, scattered attackers.
var virtual100k = axis{func(c *Config) {
	c.TotalClients = 100000
	c.PerRound = 50
	c.Population = "virtual"
	c.Placement = "scatter"
}}

var withForensics = axis{func(c *Config) { c.Forensics = true }}

var table2 = Experiment{
	ID:      "table2",
	Title:   "Table II: ASR and max accuracy per dataset/defense/attack (β=0.5, 20% attackers)",
	Grid:    grid(paperDatasets, paperDefenses, paperAttacks),
	Columns: []Column{colDataset, colDefense, colAttack, colClean, colAccM, colASR},
	Claims: []Claim{
		{Metric: asr, Shared: fashionDFAR, Hi: Cell{"defense": "mkrum"}, Bound: 10},
		{Metric: asr, Shared: fashionDFAR, Hi: Cell{"defense": "bulyan"}, Bound: 10},
		{Metric: asr, Shared: fashionDFAR, Hi: Cell{"defense": "trmean"}, Bound: 10},
		{Metric: asr, Shared: fashionDFAR, Hi: Cell{"defense": "median"}, Bound: 10},
	},
}

var fashionDFAR = Cell{"dataset": "fashion-sim", "attack": "dfa-r"}

var fig4 = Experiment{
	ID:      "fig4",
	Title:   "Fig. 4: Defense pass rate (DPR) on mKrum and Bulyan (β=0.5)",
	Grid:    grid(paperDatasets, defenses("mkrum", "bulyan"), paperAttacks),
	Columns: []Column{colDataset, colDefense, colAttack, colDPR},
	Claims: []Claim{
		{Metric: dpr, Shared: Cell{"dataset": "fashion-sim", "defense": "mkrum"},
			Hi: Cell{"attack": "dfa-r"}, Lo: Cell{"attack": "fang"}},
		{Metric: dpr, Shared: Cell{"dataset": "fashion-sim", "defense": "bulyan"},
			Hi: Cell{"attack": "dfa-r"}, Lo: Cell{"attack": "fang"}},
	},
}

var fig5 = Experiment{
	ID:    "fig5",
	Title: "Fig. 5: ASR vs data heterogeneity β under Bulyan",
	Grid:  grid(twoDatasets, betas(0.1, 0.5, 0.9), paperAttacks, defenses("bulyan")),
	Columns: []Column{colDataset, colAttack,
		key("beta", func(c Config) string { return fmt.Sprintf("%.1f", c.Beta) }), colASR},
	Claims: []Claim{
		{Metric: asr, Shared: fashionDFAR, Hi: Cell{"beta": "0.1"}, Lo: Cell{"beta": "0.9"}},
	},
}

var fig6 = Experiment{
	ID:      "fig6",
	Title:   "Fig. 6: ASR vs attacker proportion on mKrum and TRmean (Fashion)",
	Grid:    grid(defenses("mkrum", "trmean"), fractions(0.1, 0.2, 0.3), paperAttacks),
	Columns: []Column{colDefense, colAttack, colAttacker, colASR},
}

var fig7 = Experiment{
	ID:      "fig7",
	Title:   "Fig. 7: DFA local synthesis loss per epoch (Fashion)",
	Grid:    grid(dfa, paperDefenses),
	Columns: []Column{colAttack, colDefense},
	render:  renderSynthesisLoss,
}

// renderSynthesisLoss prints one row per DFA cell and synthesis epoch: the
// epoch's loss averaged over the rounds that reached it.
func renderSynthesisLoss(w io.Writer, cols []Column, outs []*Outcome) {
	fmt.Fprintln(w, header(cols)+"\tepoch\tmean_synthesis_loss")
	for _, o := range outs {
		if len(o.SynthesisLoss) == 0 {
			continue
		}
		for e := range o.SynthesisLoss[0] {
			sum, n := 0.0, 0
			for _, round := range o.SynthesisLoss {
				if e < len(round) {
					sum += round[e]
					n++
				}
			}
			fmt.Fprintf(w, "%s\t%d\t%.4f\n", row(cols, o), e+1, sum/float64(n))
		}
	}
}

var table3 = Experiment{
	ID:    "table3",
	Title: "Table III: static vs trained synthesis (ASR/DPR)",
	Grid:  grid(twoDatasets, attacks("dfa-r", "dfa-r-static", "dfa-g", "dfa-g-static"), paperDefenses),
	Columns: []Column{colDataset,
		key("attack", func(c Config) string { return strings.TrimSuffix(c.Attack, "-static") }),
		key("variant", func(c Config) string {
			if strings.HasSuffix(c.Attack, "-static") {
				return "static"
			}
			return "trained"
		}),
		colDefense, colASR, colDPR},
	// Not reproduced at the quick profile (README).
	Claims: []Claim{
		{Metric: asr, Shared: Cell{"dataset": "fashion-sim", "attack": "dfa-g", "defense": "mkrum"},
			Hi: Cell{"variant": "trained"}, Lo: Cell{"variant": "static"}},
	},
}

var table4 = Experiment{
	ID:    "table4",
	Title: "Table IV: distance-regularization ablation (ASR/DPR, Fashion)",
	Grid: grid(dfa, each([]bool{false, true}, func(c *Config, v bool) { c.NoReg = v }),
		paperDefenses),
	Columns: []Column{colAttack,
		key("regularization", func(c Config) string {
			if c.NoReg {
				return "without"
			}
			return "with"
		}),
		colDefense, colASR, colDPR},
}

var fig8 = Experiment{
	ID:      "fig8",
	Title:   "Fig. 8: synthetic vs real attacker data (ASR)",
	Grid:    grid(twoDatasets, attacks("dfa-r", "dfa-g", "real-data"), paperDefenses),
	Columns: []Column{colDataset, colAttack, colDefense, colASR},
}

var fig9 = Experiment{
	ID:    "fig9",
	Title: "Fig. 9: REFD vs Bulyan accuracy under DFA across heterogeneity",
	// Beta 0 encodes the i.i.d. setting.
	Grid: grid(twoDatasets, dfa, defenses("bulyan", "refd"), betas(0, 0.9, 0.5, 0.1)),
	Columns: []Column{colDataset, colAttack, colDefense,
		key("heterogeneity", func(c Config) string {
			if c.Beta == 0 {
				return "iid"
			}
			return fmt.Sprintf("beta=%.1f", c.Beta)
		}),
		colAccM, colClean},
	Claims: []Claim{
		{Metric: accM, Shared: Cell{"dataset": "fashion-sim", "attack": "dfa-r", "heterogeneity": "beta=0.1"},
			Hi: Cell{"defense": "refd"}, Lo: Cell{"defense": "bulyan"}},
		{Metric: accM, Shared: Cell{"dataset": "fashion-sim", "attack": "dfa-g", "heterogeneity": "beta=0.1"},
			Hi: Cell{"defense": "refd"}, Lo: Cell{"defense": "bulyan"}},
	},
}

var fig10 = Experiment{
	ID:      "fig10",
	Title:   "Fig. 10: accuracy of all defenses (incl. REFD) against all attacks (β=0.5)",
	Grid:    grid(twoDatasets, paperAttacks, defenses("mkrum", "bulyan", "trmean", "median", "refd")),
	Columns: []Column{colDataset, colAttack, colDefense, colAccM, colClean},
	Claims: []Claim{
		{Metric: accM, Shared: Cell{"dataset": "fashion-sim", "attack": "dfa-g"},
			Hi: Cell{"defense": "refd"}, Lo: Cell{"defense": "mkrum"}},
		{Metric: accM, Shared: Cell{"dataset": "fashion-sim", "attack": "dfa-g"},
			Hi: Cell{"defense": "refd"}, Lo: Cell{"defense": "bulyan"}},
	},
}

var randomWeights = Experiment{
	ID:      "randomweights",
	Title:   "§III-B: random-weights attack DPR (motivating experiment)",
	Grid:    grid(twoDatasets, defenses("mkrum", "bulyan"), attacks("random")),
	Columns: []Column{colDataset, colDefense, colDPR, colASR},
	// The grid has no DFA cell to compare against, so the claim is a bound:
	// the selection defenses filter random weights.
	Claims: []Claim{
		{Metric: dpr, Shared: Cell{"dataset": "fashion-sim"}, Lo: Cell{"defense": "bulyan"}, Bound: 1},
	},
}

var sampleSize = Experiment{
	ID:    "samplesize",
	Title: "§IV-A: |S| sensitivity of DFA (Fashion, mKrum)",
	Grid: grid(attacks("dfa-g", "dfa-r"),
		each([]int{20, 50, 100}, func(c *Config, v int) { c.SampleCount = v }), defenses("mkrum")),
	Columns: []Column{colAttack, key("|S|", func(c Config) string { return fmt.Sprint(c.SampleCount) }), colASR, colDPR},
}

// sybil reproduces the Section III-A claim that Sybil defenses such as
// FoolsGold are easily circumvented by adding small perturbation noise to
// the attackers' otherwise identical updates.
var sybil = Experiment{
	ID:    "sybil",
	Title: "§III-A extension: DFA vs the FoolsGold Sybil defense, with and without perturbation noise",
	Grid: grid(dfa, each([]float64{0, 1e-3}, func(c *Config, v float64) { c.PerturbStd = v }),
		defenses("foolsgold")),
	Columns: []Column{colAttack,
		key("perturbation", func(c Config) string {
			if c.PerturbStd > 0 {
				return fmt.Sprintf("noise std %g", c.PerturbStd)
			}
			return "identical updates"
		}),
		colASR, colDPR},
}

// adaptiveAlpha compares REFD with its fixed α = 1 against the adaptive-α
// variant the paper names as future work, across the attack spectrum.
var adaptiveAlpha = Experiment{
	ID:      "adaptivealpha",
	Title:   "§V extension: fixed vs adaptive REFD α (the paper's future-work direction)",
	Grid:    grid(attacks("lie", "minmax", "dfa-r", "dfa-g"), defenses("refd", "refd-adaptive")),
	Columns: []Column{colAttack, colDefense, colAccM, colASR, colDPR},
}

// participation runs the paper's fashion/DFA-R/mKrum cell under each
// production-participation scenario the engine exposes.
var participation = Experiment{
	ID:    "participation",
	Title: "Production extension: DFA-R vs mKrum under cross-device participation (sampler × churn × server optimizer × sync/async)",
	Grid: grid(attacks("dfa-r"), defenses("mkrum"), axis{
		func(*Config) {},
		func(c *Config) { c.Sampler = "bernoulli" },
		func(c *Config) { c.Sampler, c.DropoutProb, c.StragglerProb = "bernoulli", 0.2, 0.1 },
		func(c *Config) { c.DropoutProb, c.StragglerProb, c.ServerOpt = 0.2, 0.1, "fedavgm" },
		func(c *Config) { c.AsyncBuffer, c.AsyncMaxDelay = 5, 2 },
		func(c *Config) { c.Sampler, c.Partition = "weighted", "quantity" },
	}),
	Columns: []Column{key("scenario", scenarioName), colClean, colAccM, colASR, colDPR,
		value("mean_responded", func(o *Outcome) string {
			responded := 0
			for _, rs := range o.Trace {
				responded += rs.Responded
			}
			mean := 0.0
			if len(o.Trace) > 0 {
				mean = float64(responded) / float64(len(o.Trace))
			}
			return fmt.Sprintf("%.1f", mean)
		})},
}

// scenarioName names a cell by the participation axes it moves off the
// paper's synchronous uniform default, e.g. "bernoulli-churn".
func scenarioName(c Config) string {
	var parts []string
	if c.Sampler != "" {
		parts = append(parts, c.Sampler)
	}
	if c.DropoutProb > 0 || c.StragglerProb > 0 {
		parts = append(parts, "churn")
	}
	if c.ServerOpt != "" {
		parts = append(parts, c.ServerOpt)
	}
	if c.AsyncBuffer > 0 {
		parts = append(parts, fmt.Sprintf("async-b%d", c.AsyncBuffer))
	}
	if c.Partition != "" {
		parts = append(parts, c.Partition)
	}
	if len(parts) == 0 {
		return "sync-uniform"
	}
	return strings.Join(parts, "-")
}

// productionScale is the Shejwalkar et al. production regime (tiny
// per-round samples, attacker fractions down to 0.01%) the paper's
// 100-client/20% setup cannot express, flat and with 5 mKrum groups.
var productionScale = Experiment{
	ID:    "productionscale",
	Title: "Production extension: attacker dilution at cross-device scale (100k-client lazy population, attacker fraction × topology × attack, mKrum)",
	Grid: grid(virtual100k, fractions(0.2, 0.01, 0.001, 0.0001),
		each([]int{0, 5}, func(c *Config, v int) { c.Groups = v }),
		attacks("dfa-r", "minmax", "labelflip"), defenses("mkrum")),
	Columns: []Column{colAttacker,
		key("topology", func(c Config) string {
			if c.Groups > 0 {
				return fmt.Sprintf("hier-%d", c.Groups)
			}
			return "flat"
		}),
		colAttack, colClean, colAccM, colASR, colDPR,
		value("sel_malicious", func(o *Outcome) string {
			selMal := 0
			for _, rs := range o.Trace {
				selMal += rs.SelectedMalicious
			}
			return fmt.Sprint(selMal)
		})},
}

// detection is the forensics scoreboard. DPR stays beside the detection
// view (AUC, TPR@1%FPR, TPR/FPR): a defense can look strong on DPR while
// filtering half its benign clients, and only the FPR column shows it.
var detection = Experiment{
	ID:    "detection",
	Title: "Forensics extension: detection quality (AUC, TPR@1%FPR) of every defense across attacks and attacker fractions on a 100k-client population",
	Grid: grid(virtual100k, withForensics, fractions(0.2, 0.01, 0.001),
		defenses("refd", "mkrum", "foolsgold", "bulyan"), attacks("dfa-r", "minmax", "labelflip")),
	Columns: []Column{colAttacker, colDefense, colAttack, colAUC, colTPRAt,
		value("TPR%", detected(func(o *Outcome) float64 { return o.Detection.TPR * 100 })),
		value("FPR%", detected(func(o *Outcome) float64 { return o.Detection.FPR * 100 })),
		colDPR,
		value("zero_sel", func(o *Outcome) string {
			if o.Detection == nil {
				return "0"
			}
			return fmt.Sprint(o.Detection.ZeroSelectionRounds)
		})},
}

// compression asks whether lossy update compression (fp16, int8, int8 with
// 10% top-k and error feedback) degrades detection (AUC, TPR@1%FPR) or
// shifts ASR/DPR, with the geometry computed in the compressed domain.
var compression = Experiment{
	ID:    "compression",
	Title: "Transport extension: update compression (fp16/int8/top-k+EF) × attack × defense — does compressed-domain robust aggregation keep its detection quality?",
	Grid: grid(withForensics, axis{
		func(*Config) {},
		func(c *Config) { c.Codec = "fp16" },
		func(c *Config) { c.Codec = "int8" },
		func(c *Config) { c.Codec, c.TopK, c.ErrorFeedback = "int8", 0.1, true },
	}, defenses("refd", "mkrum", "foolsgold"), attacks("dfa-r", "minmax", "labelflip")),
	Columns: []Column{key("codec", codecName), colDefense, colAttack, colAUC, colTPRAt, colASR, colDPR, colAccM},
}

// codecName names a cell's uplink codec, e.g. "int8-top10-ef".
func codecName(c Config) string {
	name := c.Codec
	if name == "" {
		name = "off"
	}
	if c.TopK > 0 {
		name += fmt.Sprintf("-top%g", c.TopK*100)
	}
	if c.ErrorFeedback {
		name += "-ef"
	}
	return name
}
