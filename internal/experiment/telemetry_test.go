package experiment

// Telemetry wiring tests: the observation-only contract at the experiment
// layer (identical run-store keys and bit-identical outcomes watched or
// not), which watch values turn telemetry on, the trace-export plumbing,
// and the fleet instrumentation of the sweep runner.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryRunKeyInvariant pins the store contract: telemetry is how a
// run is watched, so it has no Config field to strip, and a run watched
// through every telemetry sink is stored under its unwatched twin's key.
func TestTelemetryRunKeyInvariant(t *testing.T) {
	dir := t.TempDir()
	assertWatchKeepsIdentity(t, tinyCfg("lie", "mkrum"), Watch{
		OpsAddr:      "127.0.0.1:0",
		TracePath:    filepath.Join(dir, "trace.json"),
		TraceJournal: filepath.Join(dir, "spans.jsonl"),
	}, tinyCfg("lie", "mkrum"))
}

// TestTelemetryConfigImplication: telemetry is on exactly when a sink
// exists — each of OpsAddr, TracePath and TraceJournal alone instruments
// the watched run, and nothing else does.
func TestTelemetryConfigImplication(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []Watch{
		{OpsAddr: "127.0.0.1:0"},
		{TracePath: filepath.Join(dir, "x.json")},
		{TraceJournal: filepath.Join(dir, "x.jsonl")},
	} {
		p, err := OpenPlane(w, "test", "")
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(tinyCfg("lie", "mkrum"), p)
		var b strings.Builder
		if werr := p.Registry().WritePrometheus(&b); werr != nil {
			t.Fatal(werr)
		}
		if cerr := p.Close(); err != nil || cerr != nil {
			t.Fatal(err, cerr)
		}
		if !strings.Contains(b.String(), "fl_rounds_total 3") {
			t.Fatalf("watch %+v did not instrument the run:\n%s", w, b.String())
		}
	}
	if p := openTestPlane(t, Watch{AuditPath: filepath.Join(dir, "a.jsonl")}); p.Registry() != nil {
		t.Fatal("an audit journal is not a telemetry sink")
	}
}

// TestTelemetryRunWiring is the end-to-end check on the single-run path:
// full telemetry (registry, ops endpoint with forensics mounted, Chrome
// trace, span journal) leaves the outcome bit-identical to the plain run,
// and both trace exports land on disk well-formed.
func TestTelemetryRunWiring(t *testing.T) {
	plain, err := Run(tinyCfg("lie", "mkrum"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := tinyCfg("lie", "mkrum")
	cfg.Forensics = true
	watch := Watch{
		OpsAddr:      "127.0.0.1:0",
		TracePath:    filepath.Join(dir, "trace.json"),
		TraceJournal: filepath.Join(dir, "spans.jsonl"),
	}
	out := runWatched(t, cfg, watch)
	if out.MaxAcc != plain.MaxAcc || out.FinalAcc != plain.FinalAcc || out.DPR != plain.DPR {
		t.Fatalf("telemetry changed results: acc %v/%v vs %v/%v, DPR %v vs %v",
			out.MaxAcc, out.FinalAcc, plain.MaxAcc, plain.FinalAcc, out.DPR, plain.DPR)
	}
	for i := range out.Trace {
		if out.Trace[i] != plain.Trace[i] {
			t.Fatalf("round %d trace differs: %+v vs %+v", i, out.Trace[i], plain.Trace[i])
		}
	}

	// The Chrome trace must be a JSON array containing the round and phase
	// spans of a 3-round run, and the distance-matrix spans nested in its
	// aggregate spans.
	raw, err := os.ReadFile(watch.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	names := make(map[string]int)
	for _, ev := range events {
		if n, ok := ev["name"].(string); ok {
			names[n]++
		}
	}
	for _, want := range []string{"round", "select", "aggregate", "eval", "distance-matrix"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q spans (saw %v)", want, names)
		}
	}
	if names["round"] != cfg.Rounds {
		t.Errorf("trace has %d round spans, want %d", names["round"], cfg.Rounds)
	}

	// The span journal must be line-delimited JSON with one record per span.
	journal, err := os.ReadFile(watch.TraceJournal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(journal)), "\n")
	if len(lines) == 0 {
		t.Fatal("span journal is empty")
	}
	if !strings.Contains(string(journal), `"aggregate"`) {
		t.Error("span journal carries no aggregate span")
	}
}

// TestRunGridFleetTelemetry pins the sweep instrumentation: a grid drained
// with a SweepTelemetry attached reports per-worker throughput through
// ProgressEvent and counts every executed cell on the registry.
func TestRunGridFleetTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRunner()
	r.Telemetry = telemetry.NewSweepTelemetry(reg, nil, "w0")
	r.runFn = func(cfg Config) (*Outcome, error) {
		return &Outcome{Config: cfg, MaxAcc: 0.5}, nil
	}
	var last ProgressEvent
	r.Progress = func(ev ProgressEvent) { last = ev }

	// Three cells and the one clean baseline they share.
	cfgs := []Config{tinyCfg("none", "fedavg"), tinyCfg("lie", "mkrum"), tinyCfg("lie", "trmean")}
	if _, err := r.RunGrid(cfgs, 1); err != nil {
		t.Fatal(err)
	}
	want := int64(len(cfgs) + 1)
	if got := r.Telemetry.Cells(); got != want {
		t.Fatalf("sweep telemetry counted %d cells, want %d", got, want)
	}
	if last.WorkerCells != want {
		t.Fatalf("final ProgressEvent reports %d worker cells, want %d", last.WorkerCells, want)
	}
	if last.CellsPerMin <= 0 {
		t.Fatalf("final ProgressEvent reports throughput %v, want > 0", last.CellsPerMin)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `sweep_cells_total{worker="w0"} 4`) {
		t.Fatalf("registry missing executed-cell count:\n%s", b.String())
	}
}
