package experiment

// Dashboard wiring tests: the observation-only contract (bit-identical
// DPR/ASR and run-store keys with the dashboard on or off, even while the
// endpoints are being hammered), config validation, and the replay loader's
// source sniffing over both journal kinds.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestDashboardRunKeyInvariant pins the store contract: the dashboard is
// how a run is watched, so it has no Config field to strip, and a run
// served on the dashboard is stored under its unwatched twin's key.
func TestDashboardRunKeyInvariant(t *testing.T) {
	assertWatchKeepsIdentity(t, tinyCfg("lie", "mkrum"),
		Watch{Dash: true, OnBound: func(string) {}},
		tinyCfg("lie", "mkrum"))
}

// TestDashboardConfigValidation: the replay tab needs the dashboard, and a
// dashboard asked for without an endpoint gets an ephemeral loopback one,
// with the run behind it audited and instrumented.
func TestDashboardConfigValidation(t *testing.T) {
	if _, err := OpenPlane(Watch{DashReplay: "x.jsonl"}, "test"); err == nil {
		t.Fatal("DashReplay without Dash should fail validation")
	}
	var addr string
	p := openTestPlane(t, Watch{Dash: true, OnBound: func(a string) { addr = a }})
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("Dash without OpsAddr bound %q, want an ephemeral loopback port", addr)
	}
	out, err := run(tinyCfg("lie", "mkrum"), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detection == nil || p.Registry() == nil {
		t.Fatal("Dash should imply an audited, instrumented run")
	}
}

// TestDashboardOnOffBitIdentical is the acceptance test's purity half, with
// the hammer attached: while the dashboard-on run executes, a goroutine
// pounds the dashboard page, the forensics JSON, the incremental poll and
// the JSON metrics snapshot — and the outcome must still be bit-identical
// to the dashboard-off twin.
func TestDashboardOnOffBitIdentical(t *testing.T) {
	var addr string
	p := openTestPlane(t, Watch{Dash: true, OnBound: func(a string) { addr = a }})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{
			"/dash/", "/dash/api/config", "/metrics.json",
			"/forensics/metrics", "/forensics/rounds", "/forensics/rounds?since=0",
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + paths[i%len(paths)])
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	a, err := run(tinyCfg("minmax", "mkrum"), p)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	b, err := Run(tinyCfg("minmax", "mkrum"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(a.MaxAcc, b.MaxAcc) || !sameBits(a.FinalAcc, b.FinalAcc) || !sameBits(a.DPR, b.DPR) || !sameBits(a.ASR, b.ASR) {
		t.Fatalf("dashboard changed results: acc %v/%v vs %v/%v, DPR %v vs %v, ASR %v vs %v",
			a.MaxAcc, a.FinalAcc, b.MaxAcc, b.FinalAcc, a.DPR, b.DPR, a.ASR, b.ASR)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatal("trace lengths differ")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("round %d trace differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
}

// TestDashboardServesDuringRun verifies the mounted surfaces actually
// answer during a live run: the embedded page, its config endpoint, and the
// replay API when DashReplay names a journal.
func TestDashboardServesDuringRun(t *testing.T) {
	// First produce an audit journal to replay.
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	seedCfg := tinyCfg("lie", "mkrum")
	runWatched(t, seedCfg, Watch{AuditPath: auditPath})

	// OnBound runs synchronously once the listener serves and before the
	// simulation starts, so fetching from inside it is guaranteed to hit a
	// live endpoint (the run itself can finish in milliseconds).
	type fetch struct {
		page, config, runs string
		err                error
	}
	var f fetch
	watch := Watch{Dash: true, DashReplay: auditPath}
	watch.OnBound = func(addr string) {
		read := func(path string) string {
			status, body, err := httpGet(addr, path)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: status %d", path, status)
			}
			if err != nil {
				f.err = err
			}
			return body
		}
		f.page = read("/dash/")
		f.config = read("/dash/api/config")
		f.runs = read("/dash/api/replay/runs")
	}
	runWatched(t, tinyCfg("lie", "mkrum"), watch)
	if f.err != nil {
		t.Fatal(f.err)
	}
	if !strings.Contains(f.page, "app.js") {
		t.Fatalf("/dash/ does not serve the embedded page:\n%.200s", f.page)
	}
	var dc struct {
		Federations []string `json:"federations"`
		Replay      bool     `json:"replay"`
	}
	if err := json.Unmarshal([]byte(f.config), &dc); err != nil {
		t.Fatalf("config: %v\n%s", err, f.config)
	}
	if !dc.Replay || len(dc.Federations) != 1 || dc.Federations[0] != "/forensics" {
		t.Fatalf("dashboard config = %+v", dc)
	}
	var runs []struct {
		Name   string `json:"name"`
		Rounds int    `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(f.runs), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Rounds != seedCfg.Rounds {
		t.Fatalf("replay runs = %+v, want 1 run with %d rounds", runs, seedCfg.Rounds)
	}
}

// TestLoadDashReplaySniffsSources: one spec mixing a run store and an audit
// journal loads both, each through the right decoder.
func TestLoadDashReplaySniffsSources(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	storePath := filepath.Join(dir, "store.jsonl")

	cfg := tinyCfg("minmax", "mkrum")
	out := runWatched(t, cfg, Watch{AuditPath: auditPath})
	store, err := OpenStore(storePath, "")
	if err != nil {
		t.Fatal(err)
	}
	key, err := runKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Record(key, out); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	runs, err := LoadDashReplay(storePath + " , " + auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(runs))
	}
	storeRun, auditRun := runs[0], runs[1]
	if storeRun.Source != "run-store" || auditRun.Source != "audit-journal" {
		t.Fatalf("source sniffing = %q/%q", storeRun.Source, auditRun.Source)
	}
	if !strings.HasPrefix(storeRun.Name, "tiny-sim/minmax/mkrum") {
		t.Fatalf("store run name %q", storeRun.Name)
	}
	if len(storeRun.Rounds) != cfg.Rounds || len(auditRun.Rounds) != cfg.Rounds {
		t.Fatalf("round counts %d/%d, want %d each", len(storeRun.Rounds), len(auditRun.Rounds), cfg.Rounds)
	}
	// The store-side replay reconstructs only what the trace honestly
	// knows: TP + FN must equal the selected-malicious count, FP/TN stay
	// zero (FPR null), and accuracy comes from the stored timeline.
	for i, rr := range storeRun.Rounds {
		rs := out.Trace[i]
		m := rr.Audit.Metrics
		if rs.PassedMalicious >= 0 {
			if m.TP+m.FN != rs.SelectedMalicious || m.FN != rs.PassedMalicious {
				t.Fatalf("round %d confusion %+v vs trace %+v", i, m.Confusion, rs)
			}
			if !m.Known {
				t.Fatalf("round %d should be Known", i)
			}
		} else if m.Known {
			t.Fatalf("round %d claims a decision the trace never recorded", i)
		}
		if m.FP != 0 || m.TN != 0 {
			t.Fatalf("round %d fabricated FP/TN: %+v", i, m.Confusion)
		}
		if !math.IsNaN(m.FPR()) {
			t.Fatalf("round %d FPR = %v, want NaN (no benign-rejection data in the trace)", i, m.FPR())
		}
		if float64(rr.Accuracy) != out.AccTimeline[i] {
			t.Fatalf("round %d accuracy %v, want timeline %v", i, rr.Accuracy, out.AccTimeline[i])
		}
	}
	// Audit-journal rounds carry full records; store rounds carry none.
	if len(auditRun.Rounds[0].Audit.Records) == 0 {
		t.Fatal("audit replay lost its per-update records")
	}
	if len(storeRun.Rounds[0].Audit.Records) != 0 {
		t.Fatal("store replay fabricated per-update records")
	}

	if runs, err := LoadDashReplay(""); err != nil || len(runs) != 0 {
		t.Fatalf("empty spec = %d runs, err %v", len(runs), err)
	}
	if _, err := LoadDashReplay(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing journal should error")
	}
}
