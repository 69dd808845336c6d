package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raise lifts the high-water mark high to now if now is above it.
func raise(high *atomic.Int32, now int32) {
	for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
	}
}

// TestTryGoHoldsOneSlot: a started helper holds exactly one slot until its
// function returns, and a full budget starts nothing.
func TestTryGoHoldsOneSlot(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var wg sync.WaitGroup
	release := make(chan struct{})
	if !TryGo(&wg, func() { <-release }) {
		t.Fatal("no helper started on an empty 2-worker budget")
	}
	if InUse() != 1 {
		t.Errorf("%d slots in use beside one helper, want 1", InUse())
	}
	if TryGo(&wg, func() { t.Error("ran on a full budget") }) {
		t.Error("a second helper started on a 2-worker budget")
	}
	close(release)
	wg.Wait()
	if InUse() != 0 {
		t.Errorf("%d slots in use after the helper returned, want 0", InUse())
	}
	SetWorkers(1)
	if TryGo(&wg, func() {}) {
		t.Error("a helper started on a 1-worker budget")
	}
}

// TestDrainRunsEveryJobOnce sweeps widths and queue lengths, the empty
// queue included: every index runs exactly once, on a worker index below
// the cap, with never more jobs in flight than the budget allows.
func TestDrainRunsEveryJobOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, budget := range []int{1, 2, 8} {
		SetWorkers(budget)
		for _, workers := range []int{1, 2, 5} {
			for _, n := range []int{0, 1, 7, 100} {
				ran := make([]atomic.Int32, n)
				var inFlight, high atomic.Int32
				Drain(workers, n, func(w, i int) {
					raise(&high, inFlight.Add(1))
					if w < 0 || w >= workers {
						t.Errorf("job %d ran on worker %d of %d", i, w, workers)
					}
					ran[i].Add(1)
					inFlight.Add(-1)
				})
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Errorf("budget=%d workers=%d n=%d: job %d ran %d times", budget, workers, n, i, c)
					}
				}
				if h := int(high.Load()); h > min(budget, workers) {
					t.Errorf("budget=%d workers=%d n=%d: %d jobs in flight at once", budget, workers, n, h)
				}
				if InUse() != 0 {
					t.Fatalf("budget=%d workers=%d n=%d: %d slots still held", budget, workers, n, InUse())
				}
			}
		}
	}
}

// TestDrainIsElastic holds the only helper slot of a 2-worker budget while
// a drain starts, as a round's craft does, and gives it back during job 1.
// Job 2 then waits for another job to start beside it, which only a helper
// started mid-drain on the returned slot can do. The holder counts as
// compute too: it and the jobs together never exceed the budget.
func TestDrainIsElastic(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var busy, high atomic.Int32
	enter := func() { raise(&high, busy.Add(1)) }
	var holder sync.WaitGroup
	release, beside := make(chan struct{}), make(chan struct{})
	if !TryGo(&holder, func() { enter(); <-release; busy.Add(-1) }) {
		t.Fatal("no free helper slot at the start of the test")
	}
	var claimed atomic.Int32
	workersSeen := make([]atomic.Bool, 2)
	Drain(2, 6, func(w, _ int) {
		enter()
		defer busy.Add(-1)
		workersSeen[w].Store(true)
		switch claimed.Add(1) {
		case 2:
			close(release)
			holder.Wait()
		case 3:
			select {
			case <-beside:
			case <-time.After(30 * time.Second):
				t.Error("no helper joined the drain on the slot given back")
			}
		case 4:
			close(beside)
		}
	})
	if !workersSeen[1].Load() {
		t.Error("worker 1 never ran a job")
	}
	if h := high.Load(); h > 2 {
		t.Errorf("%d goroutines computing at once on a 2-worker budget", h)
	}
	if InUse() != 0 {
		t.Errorf("%d slots still held after the drain", InUse())
	}
}

// TestParallelForInlineAllocs: a range that runs inline calls fn directly,
// so with a capture-free fn ParallelFor allocates nothing.
func TestParallelForInlineAllocs(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		allocs := testing.AllocsPerRun(100, func() { ParallelFor(8, 8, func(lo, hi int) {}) })
		if allocs != 0 {
			t.Errorf("%d workers: an inline ParallelFor allocates %v objects, want 0", workers, allocs)
		}
	}
}
