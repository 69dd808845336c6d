package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

// countJournalLines counts raw journal lines recorded under key — the
// duplicate detector (the in-memory map last-wins view would hide them).
func countJournalLines(t *testing.T, path, key string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var jl struct {
			Key string `json:"key"`
		}
		if json.Unmarshal(line, &jl) == nil && jl.Key == key {
			n++
		}
	}
	return n
}

// fastLease tunes a Runner's lease knobs for test speed: stalls are
// detected in tens of milliseconds instead of seconds.
func fastLease(r *Runner) {
	r.leasePoll = 10 * time.Millisecond
	r.leaseExpirePolls = 3
	r.leaseRenewEvery = 5 * time.Millisecond
}

// TestWorkersDrainSharedGrid: two worker "processes" (independent Runners
// over independently opened Stores on one path) drain one grid
// concurrently. Every cell and the shared baseline — one more cell of the
// drain — must execute exactly once fleet-wide, both workers must return
// the complete grid, and each worker's progress events must account for
// every cell, the baseline included, as locally executed, remotely
// completed, or replayed.
func TestWorkersDrainSharedGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	cfgs := []Config{
		tinyCfg("lie", "mkrum"),
		tinyCfg("fang", "median"),
		tinyCfg("minmax", "trmean"),
		tinyCfg("random", "fedavg"),
		tinyCfg("signflip", "mkrum"),
		tinyCfg("minsum", "median"),
	}

	var mu sync.Mutex
	executions := make(map[string]int) // attack name (or "none") -> fleet-wide count
	slowFake := func(cfg Config) (*Outcome, error) {
		mu.Lock()
		executions[cfg.Attack]++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // force the workers to interleave
		return fakeRun(cfg)
	}

	type result struct {
		outs   []*Outcome
		events []ProgressEvent
		err    error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		store, err := OpenStore(path, []string{"alice", "bob"}[w])
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		r := NewRunner()
		r.Store = store
		r.runFn = slowFake
		fastLease(r)
		var events []ProgressEvent
		var emu sync.Mutex
		r.Progress = func(ev ProgressEvent) {
			emu.Lock()
			events = append(events, ev)
			emu.Unlock()
		}
		wg.Add(1)
		go func(w int, r *Runner, events *[]ProgressEvent) {
			defer wg.Done()
			outs, err := r.RunGrid(cfgs, 2)
			results[w] = result{outs: outs, events: *events, err: err}
		}(w, r, &events)
	}
	wg.Wait()

	for w, res := range results {
		if res.err != nil {
			t.Fatalf("worker %d: %v", w, res.err)
		}
		if len(res.outs) != len(cfgs) {
			t.Fatalf("worker %d returned %d outcomes, want %d", w, len(res.outs), len(cfgs))
		}
		for i, o := range res.outs {
			if o == nil {
				t.Fatalf("worker %d missing outcome %d", w, i)
			}
			if o.Config.Attack != cfgs[i].Attack {
				t.Fatalf("worker %d outcome %d out of order: %s", w, i, o.Config.Attack)
			}
			if math.IsNaN(o.CleanAcc) || math.IsNaN(o.ASR) {
				t.Fatalf("worker %d outcome %d missing baseline metrics", w, i)
			}
		}
		cells := len(cfgs) + 1 // the grid and its shared baseline
		if len(res.events) != cells {
			t.Fatalf("worker %d saw %d progress events, want %d", w, len(res.events), cells)
		}
		local, remote := 0, 0
		for _, ev := range res.events {
			switch {
			case ev.Remote:
				remote++
			case !ev.Skipped:
				local++
			}
		}
		if local+remote != cells {
			t.Fatalf("worker %d events: %d local + %d remote != %d cells", w, local, remote, cells)
		}
		if local == 0 {
			t.Fatalf("worker %d executed nothing — the grid was not shared", w)
		}
	}
	// Fleet-wide exactly-once: each attacked cell once, plus one baseline.
	for _, cfg := range cfgs {
		if executions[cfg.Attack] != 1 {
			t.Fatalf("cell %s executed %d times fleet-wide, want 1 (all: %v)",
				cfg.Attack, executions[cfg.Attack], executions)
		}
	}
	if executions["none"] != 1 {
		t.Fatalf("clean baseline executed %d times fleet-wide, want 1", executions["none"])
	}
	// The two workers' views of the grid must agree bit-for-bit.
	for i := range cfgs {
		a, b := results[0].outs[i], results[1].outs[i]
		if a.MaxAcc != b.MaxAcc || a.ASR != b.ASR || a.CleanAcc != b.CleanAcc {
			t.Fatalf("cell %d diverges between workers: %+v vs %+v", i, a, b)
		}
	}
}

// TestLeasedGridReclaimsStalledLease: a cell leased by a vanished owner
// (claimed, never renewed, never released) must be reclaimed by a live
// worker once its epoch stalls across enough polls.
func TestLeasedGridReclaimsStalledLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	cfgs := []Config{tinyCfg("lie", "mkrum")}
	key, err := runKey(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The "crashed worker": claims the cell through its own handle and is
	// never heard from again.
	dead, err := persist.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.TryClaim(key, "dead-worker", 0); err != nil {
		t.Fatal(err)
	}
	dead.Close()

	store, err := OpenStore(path, "live-worker")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRunner()
	r.Store = store
	r.runFn = fakeRun
	fastLease(r)
	start := time.Now()
	outs, err := r.RunGrid(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] == nil || outs[0].Config.Attack != "lie" {
		t.Fatalf("reclaimed cell outcome: %+v", outs[0])
	}
	// Reclaim requires leaseExpirePolls observations spaced leasePoll apart.
	if min := time.Duration(r.leaseExpirePolls) * r.leasePoll; time.Since(start) < min {
		t.Fatalf("grid finished in %v — lease stolen without %v of staleness evidence", time.Since(start), min)
	}
}

// TestLeasedGridDoesNotStealLiveLease: while the holder keeps renewing, a
// second worker must wait for its result rather than reclaim, even far past
// the poll budget.
func TestLeasedGridDoesNotStealLiveLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	cfgs := []Config{tinyCfg("lie", "mkrum")}
	key, err := runKey(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	holder, err := OpenStore(path, "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.TryClaim(key, 0); err != nil {
		t.Fatal(err)
	}
	// Heartbeat from the holder while the other worker polls.
	stopRenew := make(chan struct{})
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopRenew:
				return
			case <-t.C:
				_ = holder.Renew(key)
			}
		}
	}()

	store, err := OpenStore(path, "waiter")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRunner()
	r.Store = store
	executed := false
	r.runFn = func(cfg Config) (*Outcome, error) {
		if cfg.Attack == "lie" {
			executed = true
		}
		return fakeRun(cfg)
	}
	fastLease(r)

	// After 10× the staleness budget, the holder records the result itself;
	// the waiter must adopt it, not have recomputed it.
	go func() {
		time.Sleep(10 * time.Duration(r.leaseExpirePolls) * r.leasePoll)
		out, _ := fakeRun(cfgs[0].normalized(t))
		if err := holder.Record(key, out); err != nil {
			t.Error(err)
		}
		close(stopRenew)
		_ = holder.Release(key)
	}()
	outs, err := r.RunGrid(cfgs, 1)
	<-renewDone
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Fatal("waiter recomputed a cell whose holder was demonstrably alive")
	}
	if outs[0] == nil || outs[0].Config.Attack != "lie" {
		t.Fatalf("adopted outcome: %+v", outs[0])
	}
}

// normalized returns a normalized copy for test fixtures.
func (c Config) normalized(t *testing.T) Config {
	t.Helper()
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSharedStoreRecordDuplicateFree: concurrent Records under one key land
// exactly one journal line — the guarantee that makes lease stealing benign.
func TestSharedStoreRecordDuplicateFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	out, err := fakeRun(tinyCfg("lie", "mkrum").normalized(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := OpenStore(path, "w")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if err := s.Record("cell", out); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if n := countJournalLines(t, path, "cell"); n != 1 {
		t.Fatalf("key recorded %d times, want exactly 1", n)
	}
}
