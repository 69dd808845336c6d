package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRun is a deterministic, config-dependent stand-in for the real
// training pipeline: scheduling tests observe what the grid executes
// without paying for federated rounds.
func fakeRun(cfg Config) (*Outcome, error) {
	h := float64(len(cfg.Attack)*7+len(cfg.Defense)*3) / 100
	return &Outcome{
		Config:      cfg,
		CleanAcc:    math.NaN(),
		MaxAcc:      0.4 + h/10,
		FinalAcc:    0.3 + h/10,
		ASR:         math.NaN(),
		DPR:         math.NaN(),
		AccTimeline: []float64{0.1 + h, 0.2 + h, 0.3 + h},
	}, nil
}

// TestRunGridBaselineSingleflight: a grid of cells sharing one clean key
// must compute the baseline exactly once even when every worker needs it
// concurrently — the singleflight latch replaces the old serial prewarm.
func TestRunGridBaselineSingleflight(t *testing.T) {
	r := NewRunner()
	var cleanRuns, attackRuns atomic.Int64
	r.runFn = func(cfg Config) (*Outcome, error) {
		time.Sleep(5 * time.Millisecond) // force the workers to overlap
		if cfg.Attack == "none" {
			cleanRuns.Add(1)
		} else {
			attackRuns.Add(1)
		}
		return fakeRun(cfg)
	}
	attacks := []string{"lie", "fang", "minmax", "minsum", "random", "signflip"}
	var cfgs []Config
	for _, atk := range attacks {
		cfgs = append(cfgs, tinyCfg(atk, "mkrum"))
	}
	outs, err := r.RunGrid(cfgs, len(cfgs))
	if err != nil {
		t.Fatal(err)
	}
	if got := cleanRuns.Load(); got != 1 {
		t.Fatalf("clean baseline executed %d times under concurrency, want exactly 1", got)
	}
	if got := attackRuns.Load(); got != int64(len(attacks)) {
		t.Fatalf("executed %d attacked cells, want %d", got, len(attacks))
	}
	for i, o := range outs {
		if o.Config.Attack != attacks[i] {
			t.Fatalf("outcome %d out of order: %s", i, o.Config.Attack)
		}
		if math.IsNaN(o.CleanAcc) || math.IsNaN(o.ASR) {
			t.Fatalf("outcome %d missing baseline-derived metrics", i)
		}
	}
}

// TestRunGridStoreResume: a grid re-run against a store holding half the
// cells must execute only the missing half (and no baselines, which are
// journaled too) while returning identical outcomes in input order.
func TestRunGridStoreResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfgs := []Config{
		tinyCfg("lie", "mkrum"),
		tinyCfg("fang", "median"),
		tinyCfg("minmax", "trmean"),
		tinyCfg("random", "fedavg"),
	}

	store1, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner()
	r1.Store = store1
	r1.runFn = fakeRun
	firstHalf, err := r1.RunGrid(cfgs[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	// 2 grid cells + 1 shared clean baseline journaled by the first run.
	if store2.len() != 3 {
		t.Fatalf("store has %d entries after half the grid, want 3", store2.len())
	}
	r2 := NewRunner()
	r2.Store = store2
	var executed atomic.Int64
	r2.runFn = func(cfg Config) (*Outcome, error) {
		executed.Add(1)
		if cfg.Attack == "none" {
			t.Errorf("clean baseline re-executed on resume; should replay from store")
		}
		return fakeRun(cfg)
	}
	outs, err := r2.RunGrid(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("resume executed %d cells, want only the 2 missing ones", got)
	}
	if len(outs) != len(cfgs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(cfgs))
	}
	for i, o := range outs {
		if o.Config.Attack != cfgs[i].Attack || o.Config.Defense != cfgs[i].Defense {
			t.Fatalf("outcome %d out of order: %s/%s", i, o.Config.Attack, o.Config.Defense)
		}
	}
	// The replayed cells must match the first run bit-for-bit, including
	// the NaN DPR and the per-round timeline.
	for i := range firstHalf {
		a, b := firstHalf[i], outs[i]
		if a.MaxAcc != b.MaxAcc || a.FinalAcc != b.FinalAcc || a.CleanAcc != b.CleanAcc || a.ASR != b.ASR {
			t.Fatalf("cell %d metrics diverge after replay: %+v vs %+v", i, a, b)
		}
		if !math.IsNaN(b.DPR) {
			t.Fatalf("cell %d NaN DPR lost in the journal roundtrip: %v", i, b.DPR)
		}
		if len(a.AccTimeline) != len(b.AccTimeline) {
			t.Fatalf("cell %d timeline length diverges", i)
		}
		for j := range a.AccTimeline {
			if a.AccTimeline[j] != b.AccTimeline[j] {
				t.Fatalf("cell %d timeline diverges at round %d", i, j)
			}
		}
	}
}

// TestRunGridFullyResumedGrid: with every cell journaled, a re-run
// executes nothing at all.
func TestRunGridFullyResumedGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfgs := []Config{tinyCfg("lie", "mkrum"), tinyCfg("fang", "median")}

	store1, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner()
	r1.Store = store1
	r1.runFn = fakeRun
	if _, err := r1.RunGrid(cfgs, 2); err != nil {
		t.Fatal(err)
	}
	store1.Close()

	store2, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := NewRunner()
	r2.Store = store2
	r2.runFn = func(cfg Config) (*Outcome, error) {
		t.Errorf("fully journaled grid executed %s/%s", cfg.Attack, cfg.Defense)
		return fakeRun(cfg)
	}
	outs, err := r2.RunGrid(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0] == nil || outs[1] == nil {
		t.Fatalf("resumed grid returned %v", outs)
	}
}

// TestRunGridProgressEvents: every cell (executed or replayed) produces one
// serialized progress event with monotonically increasing Done.
func TestRunGridProgressEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfgs := []Config{
		tinyCfg("lie", "mkrum"),
		tinyCfg("fang", "median"),
		tinyCfg("minmax", "trmean"),
	}
	store1, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner()
	r1.Store = store1
	r1.runFn = fakeRun
	if _, err := r1.RunGrid(cfgs[:1], 1); err != nil {
		t.Fatal(err)
	}
	store1.Close()

	store2, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := NewRunner()
	r2.Store = store2
	r2.runFn = fakeRun
	var events []ProgressEvent
	r2.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	if _, err := r2.RunGrid(cfgs, 2); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cfgs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(cfgs))
	}
	skipped := 0
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(cfgs) {
			t.Fatalf("event %d: done %d/%d", i, ev.Done, ev.Total)
		}
		if ev.Outcome == nil {
			t.Fatalf("event %d missing outcome", i)
		}
		if ev.Config.Attack == "" || ev.Config.Dataset == "" {
			t.Fatalf("event %d missing cell identity: %+v", i, ev.Config)
		}
		if ev.Skipped {
			skipped++
		}
	}
	if skipped != 1 {
		t.Fatalf("%d events marked skipped, want 1 (the journaled cell)", skipped)
	}
}

// TestRunGridStoreIsInvisible: the nil store and a real one drain a grid
// through the one path, so the same cells give identical outcomes and
// identical progress events (Done, Skipped, Remote) either way; rerun on
// the filled store, every event is a replay with the same outcome.
func TestRunGridStoreIsInvisible(t *testing.T) {
	cfgs := []Config{
		tinyCfg("lie", "mkrum"),
		tinyCfg("fang", "median"),
		tinyCfg("minmax", "trmean"),
		tinyCfg("random", "fedavg"),
	}
	type mark struct {
		done            int
		skipped, remote bool
	}
	drain := func(store *Store) ([]*Outcome, []mark) {
		t.Helper()
		r := NewRunner()
		r.Store = store
		r.runFn = fakeRun
		var marks []mark
		r.Progress = func(ev ProgressEvent) { marks = append(marks, mark{ev.Done, ev.Skipped, ev.Remote}) }
		outs, err := r.RunGrid(cfgs, 2)
		if err != nil {
			t.Fatal(err)
		}
		return outs, marks
	}
	store, err := OpenStore(filepath.Join(t.TempDir(), "run.jsonl"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bare, bareMarks := drain(nil)
	stored, storedMarks := drain(store)
	replayed, replayMarks := drain(store)
	for i := range cfgs {
		for _, o := range []*Outcome{stored[i], replayed[i]} {
			if !sameBits(o.MaxAcc, bare[i].MaxAcc) || !sameBits(o.CleanAcc, bare[i].CleanAcc) ||
				!sameBits(o.ASR, bare[i].ASR) || !sameBits(o.DPR, bare[i].DPR) {
				t.Fatalf("cell %d: %+v differs from the storeless %+v", i, o, bare[i])
			}
		}
	}
	if fmt.Sprint(bareMarks) != fmt.Sprint(storedMarks) {
		t.Fatalf("progress events differ: storeless %v, stored %v", bareMarks, storedMarks)
	}
	for i, m := range replayMarks {
		if m != (mark{i + 1, true, false}) {
			t.Fatalf("rerun event %d = %+v, want a replay", i, m)
		}
	}
}

// TestRunnerSeedAveragingTimeline: AverageSeeds must average the per-round
// accuracy timeline element-wise, not keep only the first seed's trace.
func TestRunnerSeedAveragingTimeline(t *testing.T) {
	r := NewRunner()
	r.AverageSeeds = 2
	base := tinyCfg("lie", "mkrum")
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	r.runFn = func(cfg Config) (*Outcome, error) {
		// Seed 0 contributes a flat 0.2 timeline, seed 1 a flat 0.4.
		v := 0.2
		var loss [][]float64
		if cfg.Seed != base.Seed {
			v = 0.4
			loss = [][]float64{{9, 9}}
		} else {
			loss = [][]float64{{1, 2}}
		}
		return &Outcome{
			Config:        cfg,
			MaxAcc:        v,
			FinalAcc:      v,
			DPR:           math.NaN(),
			AccTimeline:   []float64{v, v, v},
			SynthesisLoss: loss,
		}, nil
	}
	out, err := r.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AccTimeline) != 3 {
		t.Fatalf("timeline length %d", len(out.AccTimeline))
	}
	for i, acc := range out.AccTimeline {
		if math.Abs(acc-0.3) > 1e-12 {
			t.Fatalf("timeline[%d] = %v, want element-wise mean 0.3", i, acc)
		}
	}
	if len(out.SynthesisLoss) != 1 || out.SynthesisLoss[0][0] != 1 {
		t.Fatalf("SynthesisLoss should be the first seed's trace, got %v", out.SynthesisLoss)
	}
}

// TestRunKey: the canonical cell identity must be stable across equivalent
// configs and distinct across any meaningful parameter change.
func TestRunKey(t *testing.T) {
	a := tinyCfg("lie", "mkrum")
	b := a
	ka, err := runKey(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := runKey(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("identical configs must share a key")
	}
	// Normalization canonicalizes before hashing: an alias and its
	// canonical name are the same cell.
	alias := a
	alias.Dataset = "tiny"
	if kalias, _ := runKey(alias, 1); kalias != ka {
		t.Fatal("dataset alias must normalize to the same key")
	}
	c := a
	c.Beta = 0.9
	if kc, _ := runKey(c, 1); kc == ka {
		t.Fatal("different beta must change the key")
	}
	if k2, _ := runKey(a, 2); k2 == ka {
		t.Fatal("different seed-averaging width must change the key")
	}
	// The key carries the store version: the unversioned derivation of the
	// same cell can never match, so a store written before a version bump
	// recomputes instead of replaying outcomes the code no longer makes.
	norm := a
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	v1 := sha256.Sum256(append(raw, []byte("|seeds=1")...))
	if ka == hex.EncodeToString(v1[:]) {
		t.Fatal("run key equals the unversioned v1 derivation")
	}
	if bk := baselineKeyOf(t, a); !strings.HasPrefix(bk, "baseline|v3|") {
		t.Fatalf("baseline key %q lacks the baseline|v3| prefix", bk)
	}
}

// TestRunKeyGolden pins v3 run keys to bytes (seed-averaging widths 1 and
// 3), so a store resumes with zero recomputed cells across refactors. A
// change that moves one of these re-keys every existing v3 store: that is
// right only when a Config field was added or a code change moves outcomes
// (then bump keyVersion), never as a side effect.
func TestRunKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg        Config
		one, three string
	}{
		{Config{},
			"541b7909c373c0c78286336309d2aeba6065e78ee6e6bc38b5dee1bedd5d5938",
			"136ce0289b4e60246b79630ebc406a291a1f2a23692e84ba23c02a84ff645f20"},
		{Config{Dataset: "cifar-sim", Attack: "dfa-g", Defense: "bulyan", Beta: .5, Seed: 7},
			"2e32237dd98ff6884f0e82e02e4953d94e8448013b8aa47f9e8e696dd41c8971",
			"c0d3f417f4f1a664446847f18f3d3a223a4ffe229544534d3f16246e1b6cb513"},
		{Config{Dataset: "fashion-sim", Attack: "dfa-r", Defense: "mkrum", Beta: .5, Seed: 3,
			TotalClients: 100000, PerRound: 50, AttackerFrac: .01, Population: "virtual",
			Placement: "scatter", Groups: 10, Forensics: true},
			"1e53009c65103d656e087de4b652765abe0fc6c68d0ba0982d9fb922d60fc846",
			"19a825e4e324cd3058259641c6da8ef1a7754a3f402c5097a0109f7846eccc6e"},
		{Config{Dataset: "tiny-sim", Attack: "minmax", Defense: "refd", Seed: 11, Codec: "int8",
			TopK: .1, ErrorFeedback: true, Sampler: "bernoulli", DropoutProb: .1,
			ServerOpt: "fedavgm", AsyncBuffer: 5},
			"bcb307e4982cc73d509d5227007b1915d5ffc53bde3d21c7e19dbb7aa057316b",
			"3925c5bccae0c687db29e95dc6615f8215f71b22f80c0b45913f1d542f99ff97"},
	} {
		for seeds, want := range map[int]string{1: tc.one, 3: tc.three} {
			got, err := runKey(tc.cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("runKey(%+v, %d) = %s, want %s", tc.cfg, seeds, got, want)
			}
		}
	}
}

// TestStoreRoundTrip: the journal-backed store survives a reopen and
// preserves NaN metrics via nullable encoding.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	store, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := fakeRun(tinyCfg("lie", "mkrum"))
	if err != nil {
		t.Fatal(err)
	}
	out.SynthesisLoss = [][]float64{{1.5, 2.5}, {0.5}}
	if err := store.Record("cell-a", out); err != nil {
		t.Fatal(err)
	}
	store.Close()

	re, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok, err := re.Lookup("cell-a")
	if err != nil || !ok {
		t.Fatalf("lookup after reopen: ok=%v err=%v", ok, err)
	}
	if got.MaxAcc != out.MaxAcc || !math.IsNaN(got.DPR) || !math.IsNaN(got.CleanAcc) {
		t.Fatalf("metrics lost in roundtrip: %+v", got)
	}
	if len(got.SynthesisLoss) != 2 || got.SynthesisLoss[0][1] != 2.5 || got.SynthesisLoss[1][0] != 0.5 {
		t.Fatalf("synthesis loss lost in roundtrip: %v", got.SynthesisLoss)
	}
	if _, ok, _ := re.Lookup("cell-missing"); ok {
		t.Fatal("missing key should not resolve")
	}
}

// TestRunGridRealPipelineWithStore exercises the store path against the
// actual training pipeline (tiny task) end to end: run, reopen, replay.
func TestRunGridRealPipelineWithStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfgs := []Config{tinyCfg("lie", "mkrum")}

	store1, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner()
	r1.Store = store1
	first, err := r1.RunGrid(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	store1.Close()

	store2, err := OpenStore(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := NewRunner()
	r2.Store = store2
	r2.runFn = func(cfg Config) (*Outcome, error) {
		t.Errorf("journaled real run re-executed: %s/%s", cfg.Attack, cfg.Defense)
		return Run(cfg)
	}
	replayed, err := r2.RunGrid(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if replayed[0].MaxAcc != first[0].MaxAcc || replayed[0].ASR != first[0].ASR {
		t.Fatalf("replayed outcome diverges: %+v vs %+v", replayed[0], first[0])
	}
}
