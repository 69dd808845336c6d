//go:build crashreclaim

package experiment

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// Crash-tolerant reclaim, end to end across real processes: a worker
// process claims a grid cell and is SIGKILLed mid-cell; a second worker
// must observe the stalled lease, reclaim it, execute the real pipeline,
// and leave exactly one result record whose outcome is bit-identical to a
// direct (storeless) run. Build-tagged because the subprocess re-exec makes
// it unsuitable for every `go test ./...` sweep; CI runs it with
// -tags crashreclaim.

const crashHelperEnv = "EXPERIMENT_CRASH_RECLAIM_HELPER"

// TestCrashReclaimHelper is the worker that "crashes": executed only in the
// re-exec'd subprocess, it claims the target cell, announces the claim on
// stdout, then hangs (never renewing) until the parent kills it.
func TestCrashReclaimHelper(t *testing.T) {
	path := os.Getenv(crashHelperEnv)
	if path == "" {
		t.Skip("helper: run only as a subprocess")
	}
	cfg := tinyCfg("lie", "mkrum")
	key, err := runKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(path, "doomed-worker")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.TryClaim(key, 0); err != nil {
		t.Fatal(err)
	}
	os.Stdout.WriteString("CLAIMED\n")
	os.Stdout.Sync()
	select {} // hold the lease without renewing until SIGKILL
}

func TestCrashedWorkerLeaseReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	cfg := tinyCfg("lie", "mkrum")
	key, err := runKey(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Spawn the doomed worker: the same test binary re-exec'd into the
	// helper above.
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashReclaimHelper$", "-test.v")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	claimed := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "CLAIMED" {
				claimed <- true
				return
			}
		}
		claimed <- false
	}()
	select {
	case ok := <-claimed:
		if !ok {
			_ = cmd.Process.Kill()
			t.Fatal("helper exited without claiming the cell")
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("helper never claimed the cell")
	}
	// SIGKILL mid-cell: no deferred cleanup, no lease release — the kernel
	// drops the flock, the journal keeps the orphaned lease record.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// The survivor: fast staleness detection, real training pipeline.
	store, err := OpenStore(path, "survivor")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRunner()
	r.Store = store
	fastLease(r)
	outs, err := r.RunGrid([]Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] == nil {
		t.Fatal("survivor produced no outcome")
	}

	// Exactly one result record despite the crash and reclaim.
	if n := countJournalLines(t, path, key); n != 1 {
		t.Fatalf("cell recorded %d times after reclaim, want exactly 1", n)
	}

	// Bit-identical to a direct storeless run: determinism makes the
	// reclaimed execution indistinguishable from an undisturbed one.
	direct, err := NewRunner().RunGrid([]Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := outs[0], direct[0]
	same := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	if !same(got.MaxAcc, want.MaxAcc) || !same(got.FinalAcc, want.FinalAcc) ||
		!same(got.CleanAcc, want.CleanAcc) || !same(got.ASR, want.ASR) || !same(got.DPR, want.DPR) {
		t.Fatalf("reclaimed outcome diverges from direct run:\n got %+v\nwant %+v", got, want)
	}
	if len(got.AccTimeline) != len(want.AccTimeline) {
		t.Fatalf("timeline length diverges: %d vs %d", len(got.AccTimeline), len(want.AccTimeline))
	}
	for i := range want.AccTimeline {
		if !same(got.AccTimeline[i], want.AccTimeline[i]) {
			t.Fatalf("timeline diverges at round %d: %v vs %v", i, got.AccTimeline[i], want.AccTimeline[i])
		}
	}
}
