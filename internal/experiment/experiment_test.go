package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// tinyCfg returns a configuration that exercises the full pipeline in
// milliseconds.
func tinyCfg(attackName, defenseName string) Config {
	return Config{
		Dataset:         "tiny-sim",
		Attack:          attackName,
		Defense:         defenseName,
		Beta:            0.5,
		Seed:            1,
		TotalClients:    10,
		PerRound:        4,
		Rounds:          3,
		EvalLimit:       40,
		SampleCount:     4,
		SynthesisEpochs: 2,
		RefPerClass:     4,
		Parallel:        true,
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Dataset != "fashion-sim" || cfg.Attack != "none" || cfg.Defense != "fedavg" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.TotalClients != 100 || cfg.PerRound != 10 || cfg.SampleCount != 50 {
		t.Fatalf("paper defaults not applied: %+v", cfg)
	}
	if cfg.SynthesisEpochs != 5 {
		t.Fatalf("fashion synthesis epochs = %d, want 5", cfg.SynthesisEpochs)
	}
	cifar := Config{Dataset: "cifar"}
	if err := cifar.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cifar.Dataset != "cifar-sim" {
		t.Fatalf("alias not canonicalized: %q", cifar.Dataset)
	}
	if cifar.SynthesisEpochs != 10 {
		t.Fatalf("cifar synthesis epochs = %d, want 10", cifar.SynthesisEpochs)
	}
	if cfg.AttackerFrac != 0 {
		t.Fatal("clean config should keep AttackerFrac 0")
	}
	attacked := Config{Attack: "lie"}
	if err := attacked.Normalize(); err != nil {
		t.Fatal(err)
	}
	if attacked.AttackerFrac != 0.2 {
		t.Fatalf("attacked AttackerFrac = %v, want paper default 0.2", attacked.AttackerFrac)
	}
}

func TestConfigNormalizeUnknownDataset(t *testing.T) {
	cfg := Config{Dataset: "imagenet"}
	if err := cfg.Normalize(); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestRunUnknownComponents(t *testing.T) {
	bad := tinyCfg("teleport", "mkrum")
	if _, err := Run(bad); err == nil {
		t.Fatal("expected error for unknown attack")
	}
	bad = tinyCfg("lie", "forcefield")
	if _, err := Run(bad); err == nil {
		t.Fatal("expected error for unknown defense")
	}
}

// TestRunAllAttackDefenseCombos smoke-tests every attack and defense name
// the registry exposes, on the tiny task.
func TestRunAllAttackDefenseCombos(t *testing.T) {
	attacks := []string{"none", "random", "labelflip", "lie", "fang", "minmax", "minsum",
		"dfa-r", "dfa-g", "dfa-r-static", "dfa-g-static", "real-data"}
	for _, atk := range attacks {
		out, err := Run(tinyCfg(atk, "mkrum"))
		if err != nil {
			t.Fatalf("attack %s: %v", atk, err)
		}
		if out.MaxAcc < 0 || out.MaxAcc > 1 {
			t.Fatalf("attack %s: max accuracy %v out of range", atk, out.MaxAcc)
		}
		if len(out.AccTimeline) != 3 {
			t.Fatalf("attack %s: timeline length %d", atk, len(out.AccTimeline))
		}
	}
	defenses := []string{"fedavg", "median", "trmean", "krum", "mkrum", "bulyan", "foolsgold", "refd", "refd-adaptive"}
	for _, def := range defenses {
		out, err := Run(tinyCfg("lie", def))
		if err != nil {
			t.Fatalf("defense %s: %v", def, err)
		}
		if out.MaxAcc < 0 || out.MaxAcc > 1 {
			t.Fatalf("defense %s: max accuracy %v out of range", def, out.MaxAcc)
		}
	}
}

// TestNormalizeRefusesNonFinite sets each float field of a Config to NaN,
// +Inf and -Inf in turn: Normalize must refuse every one and name the
// field. NaN passes the range comparisons the other checks make, so before
// this check a NaN server learning rate or dropout probability validated.
func TestNormalizeRefusesNonFinite(t *testing.T) {
	fields := 0
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		name := typ.Field(i).Name
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{Attack: "dfa-r", Sampler: "bernoulli", ServerOpt: "fedavgm", Codec: "int8"}
			reflect.ValueOf(&cfg).Elem().Field(i).SetFloat(v)
			err := cfg.Normalize()
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: Normalize error %v, want one naming %s", name, v, err, name)
			}
		}
	}
	if fields != 10 {
		t.Fatalf("Config has %d float fields, the table expects 10", fields)
	}
}

// TestNormalizeScenarioDefaults pins the defaults and validation of the
// engine's participation axes.
func TestNormalizeScenarioDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	// The default axes canonicalize to the zero value.
	if cfg.Partition != "" || cfg.Sampler != "" || cfg.ServerOpt != "" {
		t.Fatalf("default scenario axes must canonicalize to empty: %+v", cfg)
	}
	explicit := Config{Partition: "label", Sampler: "uniform", ServerOpt: "plain"}
	if err := explicit.Normalize(); err != nil {
		t.Fatal(err)
	}
	if explicit.Partition != "" || explicit.Sampler != "" || explicit.ServerOpt != "" {
		t.Fatalf("explicit default names must canonicalize to empty: %+v", explicit)
	}
	bern := Config{Sampler: "bernoulli"}
	if err := bern.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := bern.SampleRate, float64(bern.PerRound)/float64(bern.TotalClients); got != want {
		t.Fatalf("bernoulli default rate %v, want K/N = %v", got, want)
	}
	fam := Config{ServerOpt: "fedavgm"}
	if err := fam.Normalize(); err != nil {
		t.Fatal(err)
	}
	if fam.ServerLR != 1 || fam.ServerMomentum != 0.9 {
		t.Fatalf("fedavgm defaults not applied: lr=%v momentum=%v", fam.ServerLR, fam.ServerMomentum)
	}
	async := Config{AsyncBuffer: 4}
	if err := async.Normalize(); err != nil {
		t.Fatal(err)
	}
	if async.AsyncMaxDelay != 2 {
		t.Fatalf("async default delay %d, want 2", async.AsyncMaxDelay)
	}
	bad := []Config{
		{Sampler: "teleport"},
		{ServerOpt: "adamw"},
		{Partition: "vertical"},
		{Partition: "quantity"}, // requires Beta > 0
		{DropoutProb: 0.8, StragglerProb: 0.5},
		{AsyncBuffer: -1},
		{Population: "cloud"},
		{Population: "lazy"},
		{Placement: "scatter"}, // requires Population=virtual
		{Placement: "wormhole", Population: "virtual"},
		{MeanShard: 16}, // requires Population=virtual
		{PopCache: 8},   // requires Population=virtual
		{Groups: -1},
		{GroupDefense: "mkrum"},                      // requires Groups > 0
		{Population: "virtual", Sampler: "weighted"}, // O(N) weights
		{AttackerFrac: 0.7},                          // attackers capped at 50 %, on both backends
		{AttackerFrac: -0.1},
		{Population: "virtual", AttackerFrac: 0.7},
		{Population: "virtual", AttackerFrac: -0.1},
		{Codec: "zstd"},
		{TopK: 0.1},                         // requires Codec
		{ErrorFeedback: true},               // requires Codec
		{Codec: "raw", ErrorFeedback: true}, // EF needs a lossy codec
		{Codec: "int8", TopK: 1.5},          // TopK outside (0,1)
		{Codec: "fp16", TopK: -0.1},         // TopK outside (0,1)
	}
	for i, b := range bad {
		if err := b.Normalize(); err == nil {
			t.Errorf("config %d should fail normalization: %+v", i, b)
		}
	}
}

// baselineKeyOf is the baseline key of cfg's clean projection.
func baselineKeyOf(t *testing.T, cfg Config) string {
	t.Helper()
	clean, err := cleanOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := baselineKey(clean)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCleanKeyScenarioAxes: participation axes change the clean baseline,
// so they must split the baseline cache.
func TestCleanKeyScenarioAxes(t *testing.T) {
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Sampler = "bernoulli"; c.SampleRate = 0.2 },
		func(c *Config) { c.DropoutProb = 0.3 },
		func(c *Config) { c.ServerOpt = "fedavgm" },
		func(c *Config) { c.AsyncBuffer = 4 },
		func(c *Config) { c.Partition = "quantity" },
		func(c *Config) { c.Population = "virtual" },
		func(c *Config) { c.Population = "virtual"; c.MeanShard = 16 },
		func(c *Config) { c.Codec = "fp16" },
		func(c *Config) { c.Codec = "int8" },
		func(c *Config) { c.Codec = "int8"; c.TopK = 0.1 },
		func(c *Config) { c.Codec = "int8"; c.TopK = 0.1; c.ErrorFeedback = true },
	}
	seen := map[string]bool{}
	for i, mut := range variants {
		cfg := tinyCfg("none", "fedavg")
		mut(&cfg)
		key := baselineKeyOf(t, cfg)
		if seen[key] {
			t.Errorf("variant %d: clean key collides: %s", i, key)
		}
		seen[key] = true
	}
}

// cleanOnly names the fields cleanOf clears: the attack, the defense, their
// topology and audit, and the parameters only they read.
var cleanOnly = map[string]bool{
	"Attack": true, "Defense": true, "AttackerFrac": true, "Placement": true,
	"Groups": true, "GroupDefense": true, "Forensics": true,
	"SampleCount": true, "SynthesisEpochs": true, "NoReg": true, "PerturbStd": true,
	"FProxy": true, "RefPerClass": true, "RejectX": true,
}

// TestConfigIsIdentity: a run is its Config. Every field serializes, so
// perturbing any one moves the run key; and every field cleanOf keeps moves
// the baseline key too, so a field added later splits baselines instead of
// aliasing them, while the fields it clears share one baseline.
func TestConfigIsIdentity(t *testing.T) {
	base := Config{
		Dataset: "tiny-sim", Attack: "lie", Defense: "mkrum", Beta: 0.5, Seed: 1,
		Parallel: true, Partition: "quantity", Sampler: "bernoulli", SampleRate: 0.3,
		DropoutProb: 0.1, StragglerProb: 0.1, ServerOpt: "fedavgm", AsyncBuffer: 4,
		Population: "virtual", Placement: "scatter", Groups: 2, GroupDefense: "trmean",
		Forensics: true, Codec: "int8", TopK: 0.1, ErrorFeedback: true,
	}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	// A string field has no generic perturbation: name a valid other value.
	strs := map[string]func(*Config){
		"Dataset":      func(c *Config) { c.Dataset = "fashion-sim" },
		"Attack":       func(c *Config) { c.Attack = "minmax" },
		"Defense":      func(c *Config) { c.Defense = "median" },
		"Partition":    func(c *Config) { c.Partition = "" },
		"Sampler":      func(c *Config) { c.Sampler = "" },
		"ServerOpt":    func(c *Config) { c.ServerOpt = "lr" },
		"Population":   func(c *Config) { c.Population, c.MeanShard, c.Placement = "", 0, "" },
		"Placement":    func(c *Config) { c.Placement = "sybil" },
		"GroupDefense": func(c *Config) { c.GroupDefense = "median" },
		"Codec":        func(c *Config) { c.Codec = "fp16" },
	}
	runKeyOf := func(c Config) string {
		key, err := runKey(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	baseRun, baseClean := runKeyOf(base), baselineKeyOf(t, base)

	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Anonymous || f.Tag.Get("json") == "-" {
			t.Errorf("Config.%s does not serialize as itself: it cannot identify a run", f.Name)
			continue
		}
		c := base
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.01)
		case reflect.String:
			mut, ok := strs[f.Name]
			if !ok {
				t.Errorf("Config.%s: name a valid perturbation in strs", f.Name)
				continue
			}
			mut(&c)
		default:
			t.Errorf("Config.%s: no perturbation for kind %s", f.Name, v.Kind())
			continue
		}
		if runKeyOf(c) == baseRun {
			t.Errorf("perturbing Config.%s leaves the run key unchanged", f.Name)
		}
		if split := baselineKeyOf(t, c) != baseClean; split == cleanOnly[f.Name] {
			t.Errorf("perturbing Config.%s: baseline key split %v, want %v", f.Name, split, !cleanOnly[f.Name])
		}
	}
}

// TestCodecExperimentRun drives the full experiment path with the lossy
// production codec point (int8 + top-k + error feedback): the run completes,
// canonicalizes its codec axes, and reproduces bit-identically.
func TestCodecExperimentRun(t *testing.T) {
	cfg := tinyCfg("signflip", "mkrum")
	cfg.Codec = "int8"
	cfg.TopK = 0.25
	cfg.ErrorFeedback = true
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc < 0 || out.MaxAcc > 1 {
		t.Fatalf("accuracy %v out of range", out.MaxAcc)
	}
	if out.Config.Codec != "int8" || out.Config.TopK != 0.25 || !out.Config.ErrorFeedback {
		t.Fatalf("codec axes lost in normalization: %+v", out.Config)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc != again.MaxAcc || out.FinalAcc != again.FinalAcc {
		t.Fatalf("codec run not reproducible: %v/%v vs %v/%v",
			out.MaxAcc, out.FinalAcc, again.MaxAcc, again.FinalAcc)
	}
}

// TestVirtualPopulationRuns exercises the lazy-population path end-to-end:
// virtual backend, scattered placement and hierarchical aggregation through
// Run, with the DPR plumbing intact across both tiers.
func TestVirtualPopulationRuns(t *testing.T) {
	cfg := tinyCfg("signflip", "mkrum")
	cfg.TotalClients = 5000
	cfg.PerRound = 8
	cfg.AttackerFrac = 0.2
	cfg.Population = "virtual"
	cfg.Placement = "scatter"
	cfg.Groups = 2
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc < 0 || out.MaxAcc > 1 {
		t.Fatalf("accuracy %v out of range", out.MaxAcc)
	}
	if len(out.Trace) != cfg.Rounds {
		t.Fatalf("trace has %d rounds, want %d", len(out.Trace), cfg.Rounds)
	}
	if out.Config.MeanShard != 32 {
		t.Fatalf("virtual default MeanShard = %d, want 32", out.Config.MeanShard)
	}
	// Determinism: the same virtual config reproduces bit-identically.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.MaxAcc != out.MaxAcc || again.FinalAcc != out.FinalAcc {
		t.Fatalf("virtual run not deterministic: %v/%v vs %v/%v",
			out.MaxAcc, out.FinalAcc, again.MaxAcc, again.FinalAcc)
	}
}

// TestHierarchicalEagerRuns checks the two-tier topology composes with the
// legacy eager population too (it is a pure aggregator wrapper).
func TestHierarchicalEagerRuns(t *testing.T) {
	cfg := tinyCfg("lie", "mkrum")
	cfg.Groups = 2
	cfg.GroupDefense = "trmean"
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc < 0 || out.MaxAcc > 1 {
		t.Fatalf("accuracy %v out of range", out.MaxAcc)
	}
}

// TestQuantityPartitionRuns exercises the quantity-skew axis end-to-end.
func TestQuantityPartitionRuns(t *testing.T) {
	cfg := tinyCfg("lie", "mkrum")
	cfg.Partition = "quantity"
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc < 0 || out.MaxAcc > 1 {
		t.Fatalf("accuracy %v out of range", out.MaxAcc)
	}
}

func TestDFAExposesSynthesisLoss(t *testing.T) {
	out, err := Run(tinyCfg("dfa-r", "median"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SynthesisLoss) == 0 {
		t.Fatal("DFA-R run should expose synthesis losses for Fig. 7")
	}
	out, err = Run(tinyCfg("lie", "median"))
	if err != nil {
		t.Fatal(err)
	}
	if out.SynthesisLoss != nil {
		t.Fatal("LIE run should not expose synthesis losses")
	}
}

func TestRunnerFillsASRAndCachesBaseline(t *testing.T) {
	r := NewRunner()
	cfg := tinyCfg("lie", "mkrum")
	out, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.CleanAcc) || math.IsNaN(out.ASR) {
		t.Fatal("Runner.Run must fill CleanAcc and ASR")
	}
	clean1, err := r.CleanAccuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cleanCache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cleanCache))
	}
	clean2, err := r.CleanAccuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean1 != clean2 || clean1 != out.CleanAcc {
		t.Fatal("baseline cache inconsistent")
	}
}

func TestRunnerSeedAveraging(t *testing.T) {
	r := NewRunner()
	r.AverageSeeds = 2
	out, err := r.Run(tinyCfg("lie", "median"))
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAcc <= 0 || out.MaxAcc > 1 {
		t.Fatalf("averaged accuracy %v out of range", out.MaxAcc)
	}
	// Two baseline cache entries: one per seed.
	if len(r.cleanCache) != 2 {
		t.Fatalf("cache has %d entries, want 2", len(r.cleanCache))
	}
}

func TestRunGridPreservesOrderAndParallelism(t *testing.T) {
	r := NewRunner()
	cfgs := []Config{
		tinyCfg("lie", "mkrum"),
		tinyCfg("fang", "median"),
		tinyCfg("none", "fedavg"),
	}
	outs, err := r.RunGrid(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for i := range cfgs {
		if outs[i].Config.Attack != cfgs[i].Attack || outs[i].Config.Defense != cfgs[i].Defense {
			t.Fatalf("outcome %d out of order: %s/%s", i, outs[i].Config.Attack, outs[i].Config.Defense)
		}
	}
}

func TestRunGridPropagatesErrors(t *testing.T) {
	r := NewRunner()
	cfgs := []Config{tinyCfg("lie", "mkrum"), tinyCfg("bogus", "mkrum")}
	if _, err := r.RunGrid(cfgs, 2); err == nil {
		t.Fatal("expected grid error for bogus attack")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d experiments, want 18", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Grid == nil || len(e.Columns) == 0 {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		// Every claim side names exactly one row of the grid it is read
		// off, under every profile.
		for _, p := range []Profile{QuickProfile(), FullProfile()} {
			for _, c := range e.Claims {
				if _, err := claimCells(e, c, p); err != nil {
					t.Errorf("%s [%s] %s: %v", e.ID, p.Name, e.describe(c), err)
				}
			}
		}
	}
	for _, want := range []string{"table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "randomweights", "samplesize", "sybil", "participation", "compression"} {
		if _, ok := ByID(want); !ok {
			t.Errorf("experiment %q not registered", want)
		}
	}
	for _, gone := range []string{"table99", "textdfa"} {
		if _, ok := ByID(gone); ok {
			t.Errorf("unknown id %q should not resolve", gone)
		}
	}
}

func TestProfiles(t *testing.T) {
	q, ok := ProfileByName("quick")
	if !ok || q.Name != "quick" {
		t.Fatal("quick profile missing")
	}
	f, ok := ProfileByName("full")
	if !ok || f.SeedCount != 3 || f.SampleCount != 50 {
		t.Fatalf("full profile should mirror the paper: %+v", f)
	}
	if _, ok := ProfileByName("warp"); ok {
		t.Fatal("unknown profile should not resolve")
	}
	d, ok := ProfileByName("")
	if !ok || d.Name != "quick" {
		t.Fatal("empty profile name should default to quick")
	}
	cfg := q.Base("tiny-sim", "lie", "mkrum", 0.5)
	if cfg.Rounds != q.Rounds || cfg.SampleCount != q.SampleCount || !cfg.Parallel {
		t.Fatalf("Base did not apply profile: %+v", cfg)
	}
}

func TestCleanKeyDistinguishesRuns(t *testing.T) {
	a := tinyCfg("none", "fedavg")
	b := a
	b.Beta = 0.1
	if baselineKeyOf(t, a) == baselineKeyOf(t, b) {
		t.Fatal("different beta must produce different clean keys")
	}
	c := a
	c.Seed = 99
	if baselineKeyOf(t, a) == baselineKeyOf(t, c) {
		t.Fatal("different seed must produce different clean keys")
	}
	d := a
	d.Dataset = "fashion-sim"
	if baselineKeyOf(t, a) == baselineKeyOf(t, d) {
		t.Fatal("different dataset must produce different clean keys")
	}
}
