package tensor

import (
	"math/rand"
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

// holdHelperSlot sets a 2-worker budget and holds its one helper slot with
// a blocked TryGo, as a round's Drain does while its jobs run kernels; the
// returned func gives the slot back.
func holdHelperSlot(t *testing.T) (release func()) {
	t.Helper()
	SetWorkers(2)
	var wg sync.WaitGroup
	block := make(chan struct{})
	if !TryGo(&wg, func() { <-block }) {
		t.Fatal("no free helper slot to hold")
	}
	return func() { close(block); wg.Wait() }
}

// markChunk is a capture-free chunk body: it writes its chunk index over
// its range.
func markChunk(out []float64, lo, hi, c int) {
	for i := lo; i < hi; i++ {
		out[i] = float64(c)
	}
}

// gemmOperands returns the operands of a 64×64·64×64 product, whose row
// tiles split into more than one chunk on two workers or more: A, B
// row-major and B in GemmPanelB's layout.
func gemmOperands() (a, b, pb []float64, m, k, n int) {
	m, k, n = 64, 64, 64
	rng := rand.New(rand.NewSource(7))
	a, b = make([]float64, m*k), make([]float64, k*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	pb = make([]float64, PanelBLen(k, n))
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			pb[((j/8)*k+p)*8+j%8] = b[p*n+j]
		}
	}
	return a, b, pb, m, k, n
}

// TestHeldSlotFanOutAllocs: with the budget's only helper slot held, a warm
// multi-chunk ParallelChunks with a capture-free body, GemmPackedA (B read
// in place, with a ragged last panel, or packed from its transpose) and
// GemmPanelB run every chunk inline and allocate nothing — no wait group,
// no closure. This is how kernels run inside a round's Drain.
func TestHeldSlotFanOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer SetWorkers(0)
	release := holdHelperSlot(t)
	defer release()
	out := make([]float64, 64)
	a, b, pb, m, k, n := gemmOperands()
	if ChunkCount(len(out), 8) < 2 || ChunkCount(rowTiles(m), tileGrain(k, n)) < 2 {
		t.Fatal("the shapes no longer split into chunks on two workers")
	}
	c := make([]float64, m*n)
	pa, ragged := PackA(a, m, k, n, false), PackA(a, m, k, n-3, false)
	for name, call := range map[string]func(){
		"ParallelChunks":           func() { ParallelChunks(len(out), 8, len(out), out, markChunk) },
		"GemmPackedA":              func() { GemmPackedA(c, pa, b, false, false) },
		"GemmPackedA transB":       func() { GemmPackedA(c, pa, b, true, false) },
		"GemmPackedA ragged panel": func() { GemmPackedA(c, ragged, b, false, false) },
		"GemmPanelB":               func() { GemmPanelB(c, pa, pb, false) },
	} {
		call() // warm the pack-buffer recycler
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s with the helper slot held allocates %v objects per call, want 0", name, allocs)
		}
	}
	if InUse() != 1 {
		t.Errorf("%d slots in use beside the holder, want 1", InUse())
	}
}

// TestFanOutHelperPath: with free slots, the chunks past the first run on
// helper goroutines beside the caller's chunk 0 — each waits for chunk 0
// to start, which an inline chunk, run before chunk 0, never sees — and
// GemmPackedA and GemmPanelB start helpers yet give the bits of one worker
// at 1, 2 and 8.
func TestFanOutHelperPath(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{2, 8} {
		SetWorkers(workers)
		started := make(chan struct{})
		var helpers atomic.Int32
		ParallelChunks(64, 8, 64, started, func(started chan struct{}, lo, hi, c int) {
			if c == 0 {
				close(started)
				return
			}
			select {
			case <-started:
				helpers.Add(1)
			case <-time.After(30 * time.Second):
				t.Errorf("workers=%d: chunk %d did not run beside chunk 0", workers, c)
			}
		})
		if want := int32(ChunkCount(64, 8) - 1); helpers.Load() != want {
			t.Errorf("workers=%d: %d chunks ran on helpers, want %d", workers, helpers.Load(), want)
		}
	}
	a, b, pb, m, k, n := gemmOperands()
	products := map[string]func(c []float64, pa PackedA){
		"GemmPackedA": func(c []float64, pa PackedA) { GemmPackedA(c, pa, b, false, false) },
		"GemmPanelB":  func(c []float64, pa PackedA) { GemmPanelB(c, pa, pb, false) },
	}
	for name, product := range products {
		var want []float64
		for _, workers := range []int{1, 2, 8} {
			SetWorkers(workers)
			pa := PackA(a, m, k, n, false)
			c := make([]float64, m*n)
			allocs := testing.AllocsPerRun(1, func() { product(c, pa) })
			if workers > 1 && allocs == 0 {
				t.Errorf("%s at %d workers started no helper", name, workers)
			}
			if want == nil {
				want = c
				continue
			}
			for i := range c {
				if c[i] != want[i] {
					t.Fatalf("%s at %d workers: element %d = %v, want %v (bit-exact)", name, workers, i, c[i], want[i])
				}
			}
		}
	}
}
