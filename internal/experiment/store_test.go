package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
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

// TestRunGridCleanCellIsItsBaseline: a grid of a cell and its own clean
// baseline holds one key for the baseline, so the clean config runs once,
// and the attacked cell's CleanAcc is the clean cell's MaxAcc bit for bit.
func TestRunGridCleanCellIsItsBaseline(t *testing.T) {
	cfg := tinyCfg("lie", "mkrum")
	clean, err := cleanOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	var cleanRuns, runs atomic.Int64
	r.runFn = func(c Config) (*Outcome, error) {
		runs.Add(1)
		if c == clean {
			cleanRuns.Add(1)
		}
		return fakeRun(c)
	}
	outs, err := r.RunGrid([]Config{cfg, clean}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := cleanRuns.Load(); n != 1 {
		t.Fatalf("the clean config ran %d times, want once", n)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("the grid ran %d cells, want 2", n)
	}
	if !sameBits(outs[0].CleanAcc, outs[1].MaxAcc) || !sameBits(outs[1].CleanAcc, outs[1].MaxAcc) {
		t.Fatalf("CleanAcc %v and %v, want the clean cell's MaxAcc %v", outs[0].CleanAcc, outs[1].CleanAcc, outs[1].MaxAcc)
	}
	if outs[0].ASR <= 0 || outs[1].ASR != 0 {
		t.Fatalf("ASR %v and %v, want > 0 for the attacked cell and 0 for the clean one", outs[0].ASR, outs[1].ASR)
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
	// The three cells and their one shared clean baseline.
	cells := len(cfgs) + 1
	if len(events) != cells {
		t.Fatalf("got %d progress events, want %d", len(events), cells)
	}
	skipped := 0
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != cells {
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
	if skipped != 2 {
		t.Fatalf("%d events marked skipped, want 2 (the journaled cell and baseline)", skipped)
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

// TestMeanOfTimeline: meanOf averages the per-round accuracy timeline
// element-wise, not keeping only the first seed's trace, keeps the first
// seed's SynthesisLoss and leaves the seeds' own outcomes untouched.
func TestMeanOfTimeline(t *testing.T) {
	seed := func(v, loss float64) *Outcome {
		return &Outcome{
			MaxAcc:        v,
			FinalAcc:      v,
			DPR:           math.NaN(),
			AccTimeline:   []float64{v, v, v},
			SynthesisLoss: [][]float64{{loss, loss}},
		}
	}
	// Seed 0 contributes a flat 0.2 timeline, seed 1 a flat 0.4.
	first, second := seed(0.2, 1), seed(0.4, 9)
	out := meanOf([]*Outcome{first, second})
	if len(out.AccTimeline) != 3 {
		t.Fatalf("timeline length %d", len(out.AccTimeline))
	}
	for i, acc := range out.AccTimeline {
		if math.Abs(acc-0.3) > 1e-12 {
			t.Fatalf("timeline[%d] = %v, want element-wise mean 0.3", i, acc)
		}
	}
	if !math.IsNaN(out.DPR) {
		t.Fatalf("DPR %v, want NaN to propagate", out.DPR)
	}
	if len(out.SynthesisLoss) != 1 || out.SynthesisLoss[0][0] != 1 {
		t.Fatalf("SynthesisLoss should be the first seed's trace, got %v", out.SynthesisLoss)
	}
	if first.MaxAcc != 0.2 || first.AccTimeline[0] != 0.2 {
		t.Fatalf("meanOf wrote into the first seed's outcome: %+v", first)
	}
}

// TestRunKey: the canonical cell identity must be stable across equivalent
// configs and distinct across any meaningful parameter change.
func TestRunKey(t *testing.T) {
	a := tinyCfg("lie", "mkrum")
	b := a
	ka, err := runKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := runKey(b)
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
	if kalias, _ := runKey(alias); kalias != ka {
		t.Fatal("dataset alias must normalize to the same key")
	}
	c := a
	c.Beta = 0.9
	if kc, _ := runKey(c); kc == ka {
		t.Fatal("different beta must change the key")
	}
	d := a
	d.Seed += seedStride
	if kd, _ := runKey(d); kd == ka {
		t.Fatal("another seed must be another cell")
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
	unversioned := sha256.Sum256(raw)
	if ka == hex.EncodeToString(unversioned[:]) {
		t.Fatal("run key equals the unversioned derivation")
	}
}

// TestRunKeyGolden pins v7 run keys to bytes, so a store resumes with zero
// recomputed cells across refactors. A change that moves one of these
// re-keys every existing v7 store: that is right only when a Config field
// was added or a code change moves outcomes (then bump keyVersion), never
// as a side effect.
func TestRunKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{},
			"95f1e0dd32efa26464d507cf9561227a89361b45deb604ff54ae3d9f320fa16a"},
		{Config{Dataset: "cifar-sim", Attack: "dfa-g", Defense: "bulyan", Beta: .5, Seed: 7},
			"e87e2b7ca231d15d039d08e800475eeefaf47ad8460876f180347b1af1d82fd8"},
		{Config{Dataset: "fashion-sim", Attack: "dfa-r", Defense: "mkrum", Beta: .5, Seed: 3,
			TotalClients: 100000, PerRound: 50, AttackerFrac: .01, Population: "virtual",
			Placement: "scatter", Groups: 10, Forensics: true},
			"d8747825fdf93abf1f3543665dd8646d9c637d146808215911394e41a4470950"},
		{Config{Dataset: "tiny-sim", Attack: "minmax", Defense: "refd", Seed: 11, Codec: "int8",
			TopK: .1, ErrorFeedback: true, Sampler: "bernoulli", DropoutProb: .1,
			ServerOpt: "fedavgm", AsyncBuffer: 5},
			"545e8e554879f53fb91c3ea832ec838b11dd26ed8280f57e5b8eb13b2f46a018"},
	} {
		got, err := runKey(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("runKey(%+v) = %s, want %s", tc.cfg, got, tc.want)
		}
	}
}

// TestStoreRoundTrip: the journal-backed store survives a reopen and
// preserves NaN metrics, which it writes as null.
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

// TestGoldenStoreRecord: a run-store record written by an earlier build,
// with a null DPR, null timeline and trace accuracies and a detection
// summary with null rates, decodes with its NaNs and records back to
// identical bytes.
func TestGoldenStoreRecord(t *testing.T) {
	const golden = "testdata/golden_store.jsonl"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := persist.ReadEntries(golden)
	if err != nil || len(entries) != 1 {
		t.Fatalf("golden store holds %d entries: %v", len(entries), err)
	}
	var rec storedOutcome
	if err := json.Unmarshal(entries[0].Payload, &rec); err != nil {
		t.Fatal(err)
	}
	out := decodeOutcome(rec)
	if !math.IsNaN(out.DPR) || !math.IsNaN(out.AccTimeline[1]) || !math.IsNaN(out.Trace[1].Accuracy) ||
		!math.IsNaN(float64(out.Detection.AUC)) || math.IsNaN(out.MaxAcc) {
		t.Fatalf("golden record decodes without its NaNs: %+v", out)
	}
	path := filepath.Join(t.TempDir(), "re.jsonl")
	store, err := OpenStore(path, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Record(entries[0].Key, out); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-recorded outcome differs:\n got %s\nwant %s", got, want)
	}
}
