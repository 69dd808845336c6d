package repro_test

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/persist"
)

// TestRunExperimentOptsOpensStoreAndPlaneOnce pins what `flbench -exp all`
// relies on: one call takes the whole id list, so the ops endpoint is bound
// (and its dashboard hint printed) once, and the run store stays open
// across experiments — the second artifact here resumes every cell the
// first one journaled a moment earlier. The sweep plane honours the trace
// flags every binary binds: each executed cell is one span in the journal.
func TestRunExperimentOptsOpensStoreAndPlaneOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the samplesize grid")
	}
	bound := 0
	var resumed, executed int
	dir := t.TempDir()
	traceJournal := filepath.Join(dir, "trace.jsonl")
	opts := repro.RunOptions{
		StorePath: filepath.Join(dir, "run.jsonl"),
		Watch:     repro.Watch{Dash: true, TraceJournal: traceJournal, OnBound: func(string) { bound++ }},
		Progress: func(ev repro.ProgressEvent) {
			if ev.Skipped {
				resumed++
			} else {
				executed++
			}
		},
	}
	var out strings.Builder
	if err := repro.RunExperimentOpts([]string{"samplesize", "samplesize"}, opts, &out); err != nil {
		t.Fatal(err)
	}
	if bound != 1 {
		t.Fatalf("ops endpoint bound %d times over two experiments, want once", bound)
	}
	if executed == 0 || resumed != executed {
		t.Fatalf("second experiment resumed %d cells of the %d the first executed", resumed, executed)
	}
	if n := strings.Count(out.String(), "## samplesize done in "); n != 2 {
		t.Fatalf("output has %d completion lines, want 2:\n%s", n, out.String())
	}
	if raw, err := os.ReadFile(traceJournal); err != nil || strings.Count(string(raw), `"track":"sweep"`) != executed {
		t.Fatalf("trace journal (err %v) holds %d cell spans, want the %d executed cells", err, strings.Count(string(raw), `"track":"sweep"`), executed)
	}
	if err := repro.RunExperimentOpts([]string{"samplesize", "no-such-artifact"}, opts, &out); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") || bound != 1 {
		t.Fatalf("an unknown id must fail before anything opens: err %v, bound %d", err, bound)
	}
}

// TestRunConfigOptsReplaysFromStore: a store always resumes. The second
// call on one StorePath — with no other option — replays the recorded run
// and its clean baseline instead of recomputing them, returns a bit-equal
// outcome, and leaves each of the two cells in the store exactly once.
func TestRunConfigOptsReplaysFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := repro.Config{Dataset: "tiny-sim", Attack: "lie", Defense: "mkrum", Beta: 0.5,
		Rounds: 2, TotalClients: 10, PerRound: 4, EvalLimit: 40, Seed: 3}
	run := func() (*repro.Outcome, []repro.ProgressEvent) {
		t.Helper()
		var events []repro.ProgressEvent
		out, err := repro.RunConfigOpts(cfg, repro.RunOptions{
			StorePath: path,
			Progress:  func(ev repro.ProgressEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, events
	}
	first, ev1 := run()
	second, ev2 := run()
	if len(ev1) != 2 || ev1[0].Skipped || ev1[1].Skipped || len(ev2) != 2 || !ev2[0].Skipped || !ev2[1].Skipped {
		t.Fatalf("want the run and its baseline executed, then both skipped, got %+v then %+v", ev1, ev2)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(first.MaxAcc, second.MaxAcc) || !same(first.FinalAcc, second.FinalAcc) ||
		!same(first.CleanAcc, second.CleanAcc) || !same(first.ASR, second.ASR) || !same(first.DPR, second.DPR) ||
		len(first.AccTimeline) != len(second.AccTimeline) {
		t.Fatalf("replayed outcome differs:\n%+v\n%+v", first, second)
	}
	for i := range first.AccTimeline {
		if !same(first.AccTimeline[i], second.AccTimeline[i]) {
			t.Fatalf("timeline differs at round %d", i)
		}
	}
	entries, err := persist.ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for _, e := range entries {
		if !persist.IsLeaseKey(e.Key) {
			cells[e.Key]++
		}
	}
	if len(cells) != 2 || slices.Max(slices.Collect(maps.Values(cells))) != 1 {
		t.Fatalf("store holds %v, want the run and its baseline exactly once each", cells)
	}
}
