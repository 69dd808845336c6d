package experiment

// Ops-plane tests: the rules between the watch values, what the one
// constructor assembles for each, what Close guarantees on every exit path,
// and the identity contract the Config/Watch split exists for — watching a
// run cannot move the key it is stored under.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/telemetry"
)

// openTestPlane opens the plane of a watched single run and closes it with
// the test, failing the test on a close error.
func openTestPlane(t *testing.T, w Watch) *Plane {
	t.Helper()
	p, err := OpenPlane(w, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	})
	return p
}

// runWatched is the watched twin of Run for tests that read what the plane
// wrote: it returns after the plane has closed.
func runWatched(t *testing.T, cfg Config, w Watch) *Outcome {
	t.Helper()
	p, err := OpenPlane(w, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(cfg, p)
	if cerr := p.Close(); cerr != nil {
		t.Fatalf("plane close: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits compares results at the bit level: NaN (ASR of an untargeted
// cell) must match NaN, and any real drift must fail.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func httpGet(addr, path string) (int, string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// assertWatchKeepsIdentity is the body of the three *RunKeyInvariant tests:
// a run of watched observed through w is journaled under the key of its
// unwatched twin — which then resumes it without executing.
func assertWatchKeepsIdentity(t *testing.T, watched Config, w Watch, twin Config) {
	t.Helper()
	store, err := OpenStore(filepath.Join(t.TempDir(), "run.jsonl"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRunner()
	r.Store = store
	r.Watch(openTestPlane(t, w), watched)
	first, err := r.RunGrid([]Config{watched}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key, err := runKey(twin)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Lookup(key); err != nil || !ok {
		t.Fatalf("watched run is not stored under its unwatched twin's key (found %v, err %v)", ok, err)
	}
	again := NewRunner()
	again.Store = store
	again.runFn = func(Config) (*Outcome, error) {
		return nil, errors.New("the unwatched twin recomputed instead of resuming the watched run")
	}
	second, err := again.RunGrid([]Config{twin}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(first[0].MaxAcc, second[0].MaxAcc) || !sameBits(first[0].DPR, second[0].DPR) {
		t.Fatalf("resumed twin differs: %v/%v vs %v/%v", first[0].MaxAcc, first[0].DPR, second[0].MaxAcc, second[0].DPR)
	}
}

// TestWatchRules is the one table for the rules between the watch values
// and what the constructor builds from them.
func TestWatchRules(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		w         Watch
		wantErr   string
		inert     bool // OpenPlane returns nil
		opsAddr   string
		telemetry bool // a registry exists
		audits    bool // a watched single run is audited without Config.Forensics
	}{
		{name: "zero", inert: true},
		{name: "callback alone watches nothing", w: Watch{OnBound: func(string) {}}, inert: true},
		{name: "replay needs the dashboard", w: Watch{DashReplay: "x.jsonl"}, wantErr: "-dash-replay requires -dash"},
		{name: "replay needs the dashboard even with an endpoint", w: Watch{OpsAddr: "127.0.0.1:0", DashReplay: "x.jsonl"}, wantErr: "-dash-replay requires -dash"},
		{name: "dash defaults the endpoint", w: Watch{Dash: true}, opsAddr: "127.0.0.1:0", telemetry: true, audits: true},
		{name: "dash keeps a given endpoint", w: Watch{Dash: true, OpsAddr: "localhost:0"}, opsAddr: "localhost:0", telemetry: true, audits: true},
		{name: "endpoint alone", w: Watch{OpsAddr: "127.0.0.1:0"}, opsAddr: "127.0.0.1:0", telemetry: true},
		{name: "trace alone", w: Watch{TracePath: filepath.Join(dir, "t.json")}, telemetry: true},
		{name: "span journal alone", w: Watch{TraceJournal: filepath.Join(dir, "t.jsonl")}, telemetry: true},
		{name: "audit alone is not telemetry", w: Watch{AuditPath: filepath.Join(dir, "a.jsonl")}, audits: true},
		{name: "unreadable replay journal", w: Watch{Dash: true, DashReplay: filepath.Join(dir, "missing.jsonl")}, wantErr: "dash replay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := OpenPlane(tc.w, "test", "")
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("OpenPlane error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := p.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			if (p == nil) != tc.inert {
				t.Fatalf("plane nil = %v, want %v", p == nil, tc.inert)
			}
			if p == nil {
				return
			}
			if p.watch.OpsAddr != tc.opsAddr {
				t.Errorf("OpsAddr = %q, want %q", p.watch.OpsAddr, tc.opsAddr)
			}
			if got := p.Registry() != nil; got != tc.telemetry {
				t.Errorf("telemetry on = %v, want %v", got, tc.telemetry)
			}
			if got := p.Engine("") != nil; got != tc.telemetry {
				t.Errorf("engine instruments = %v, want %v", got, tc.telemetry)
			}
			if got := p.auditsRuns(); got != tc.audits {
				t.Errorf("audits runs = %v, want %v", got, tc.audits)
			}
		})
	}
}

// TestNilPlaneIsInert: the unwatched state hands out the disabled
// instrument from every method, so callers never branch on it.
func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if p.Registry() != nil || p.Engine("") != nil || p.Sweep("w") != nil || p.auditsRuns() {
		t.Fatal("nil plane handed out a live instrument")
	}
	col, err := p.Collector("", forensics.Options{Defense: "stub"})
	if err != nil || col == nil {
		t.Fatalf("nil plane must still build the in-memory collector a forensics-on Config needs: %v", err)
	}
	var runErr error
	p.CloseInto(&runErr)
	if err := p.Close(); err != nil || runErr != nil {
		t.Fatalf("nil plane close: %v / %v", err, runErr)
	}
}

// TestWatchedRunsRecordDistance: the distance-matrix time rides on each
// watched run's own engine instruments, so two mKrum runs through one plane
// both land on its defense_distance_seconds series, one observation per
// aggregation, and an unwatched run of the same process (a clean baseline,
// a later seed) adds nothing to it.
func TestWatchedRunsRecordDistance(t *testing.T) {
	p, err := OpenPlane(Watch{OpsAddr: "127.0.0.1:0"}, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	}()
	distanceCount := func() int64 {
		return p.Registry().Histogram("defense_distance_seconds", "").Count()
	}
	if _, err := run(tinyCfg("lie", "mkrum"), p); err != nil {
		t.Fatal(err)
	}
	afterFirst := distanceCount()
	if afterFirst == 0 {
		t.Fatal("a watched mkrum run recorded no distance-matrix time")
	}
	if _, err := Run(tinyCfg("lie", "mkrum")); err != nil {
		t.Fatal(err)
	}
	if got := distanceCount(); got != afterFirst {
		t.Fatalf("an unwatched run recorded distance-matrix time: %d → %d", afterFirst, got)
	}
	if _, err := run(tinyCfg("lie", "mkrum"), p); err != nil {
		t.Fatal(err)
	}
	if got := distanceCount(); got != 2*afterFirst {
		t.Fatalf("two identical watched runs recorded %d then %d observations", afterFirst, got)
	}
}

// TestSweepPlaneRecordsNoDistance: a sweep's cells are never individually
// watched, so they get no engine instruments and a plane that serves no
// federation collects none of their distance matrices — an mKrum grid
// drained under it leaves defense_distance_seconds at 0, just as it leaves
// fl_rounds_total absent.
func TestSweepPlaneRecordsNoDistance(t *testing.T) {
	p, err := OpenPlane(Watch{OpsAddr: "127.0.0.1:0"}, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	}()
	r := NewRunner()
	r.Telemetry = p.Sweep("w0")
	if _, err := r.RunGrid([]Config{tinyCfg("lie", "mkrum")}, 1); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := p.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "fl_rounds_total") {
		t.Errorf("a sweep plane instrumented an unwatched cell's rounds:\n%s", b.String())
	}
	if got := p.Registry().Histogram("defense_distance_seconds", "").Count(); got != 0 {
		t.Fatalf("a sweep plane collected %d distance-matrix spans from unwatched cells", got)
	}
}

// TestFailedRunKeepsItsTrace pins the other satellite bugfix: the trace
// files are written by the plane's Close, so a run that dies mid-way —
// here after two rounds' worth of spans — still leaves both on disk, and
// the run's error is never replaced by a close error.
func TestFailedRunKeepsItsTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	journalPath := filepath.Join(dir, "spans.jsonl")
	errMidRun := errors.New("client 3 exploded in round 2")

	watchedWork := func() (retErr error) {
		p, err := OpenPlane(Watch{
			TracePath:    tracePath,
			TraceJournal: journalPath,
		}, "test", "")
		if err != nil {
			return err
		}
		defer p.CloseInto(&retErr)
		eng := p.Engine("")
		for round := 0; round < 2; round++ {
			sp := eng.Round()
			eng.Phase(telemetry.PhaseAggregate).End()
			sp.End()
		}
		return errMidRun
	}
	if err := watchedWork(); !errors.Is(err, errMidRun) {
		t.Fatalf("run error = %v, want the mid-run failure", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("failed run left no Chrome trace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace of the failed run is not a JSON array: %v", err)
	}
	rounds := 0
	for _, ev := range events {
		if ev["name"] == "round" {
			rounds++
		}
	}
	if rounds != 2 {
		t.Fatalf("trace holds %d round spans, want the 2 that ran", rounds)
	}
	journal, err := os.ReadFile(journalPath)
	if err != nil || !strings.Contains(string(journal), `"aggregate"`) {
		t.Fatalf("failed run left no span journal (err %v):\n%s", err, journal)
	}

	// A close failure alone is reported; beside a run error it is not.
	unwritable := filepath.Join(dir, "no-such-dir", "trace.json")
	closeOnly := func(runErr error) (retErr error) {
		p, err := OpenPlane(Watch{TracePath: unwritable}, "test")
		if err != nil {
			return err
		}
		defer p.CloseInto(&retErr)
		return runErr
	}
	if err := closeOnly(nil); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("unwritable trace path: close error = %v, want a trace error", err)
	}
	if err := closeOnly(errMidRun); !errors.Is(err, errMidRun) {
		t.Fatalf("close error masked the run error: %v", err)
	}
}

// TestPlaneMountsFederations: collectors handed out after the listener is
// up are served under /forensics/<id>, journaled to AuditPath-<id>, and the
// legacy top-level /rounds is gone rather than redirected.
func TestPlaneMountsFederations(t *testing.T) {
	audit := filepath.Join(t.TempDir(), "audit.jsonl")
	var addr string
	p, err := OpenPlane(Watch{OpsAddr: "127.0.0.1:0", Dash: true, AuditPath: audit,
		OnBound: func(a string) { addr = a }}, "test", "alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta"} {
		col, err := p.Collector(id, forensics.Options{Defense: "stub"})
		if err != nil {
			t.Fatal(err)
		}
		col.ObserveAggregation(0, nil, nil, fl.Selection{})
	}
	for path, want := range map[string]int{
		"/forensics/alpha/rounds": http.StatusOK,
		"/forensics/beta/metrics": http.StatusOK,
		"/metrics":                http.StatusOK,
		"/dash/":                  http.StatusOK,
		"/rounds":                 http.StatusNotFound,
		"/forensics/rounds":       http.StatusNotFound,
	} {
		status, _, err := httpGet(addr, path)
		if err != nil || status != want {
			t.Errorf("GET %s = %d (err %v), want %d", path, status, err, want)
		}
	}
	_, cfgJSON, err := httpGet(addr, "/dash/api/config")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfgJSON, `["/forensics/alpha","/forensics/beta"]`) {
		t.Fatalf("dashboard config lacks the federation tabs: %s", cfgJSON)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta"} {
		if fi, err := os.Stat(fmt.Sprintf("%s-%s", audit, id)); err != nil || fi.Size() == 0 {
			t.Errorf("federation %s audit journal missing or empty: %v", id, err)
		}
	}
	if _, _, err := httpGet(addr, "/metrics"); err == nil {
		t.Error("ops listener still answers after Close")
	}
}
