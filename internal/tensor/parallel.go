package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package-level worker pool bounds the total number of goroutines the
// kernel layer (GEMM row blocks, convolution batch fan-out, distance-matrix
// tiles, …) may run concurrently, across every simultaneous caller. It is a
// semaphore rather than a fixed set of worker goroutines so that nested
// parallel sections (a parallel GEMM inside a concurrently trained client)
// degrade gracefully: when no slot is free the work runs inline in the
// calling goroutine instead of queueing, which makes deadlock impossible and
// keeps the machine at the configured width.
var poolWidth atomic.Int64

// SetWorkers sets the kernel worker-pool size. n <= 0 resets it to
// runtime.GOMAXPROCS(0). The setting is process-global: it bounds the
// combined parallelism of all tensor kernels and of the helpers built on
// ParallelFor (client training, evaluation, defense scoring).
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolWidth.Store(int64(n))
}

// Workers returns the current kernel worker-pool size.
func Workers() int {
	if w := poolWidth.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// slots is the global concurrency budget: a counting semaphore sized lazily
// from Workers(). extraSlots tracks how many helper goroutines beyond the
// calling one are currently running; a helper may start only while the count
// is below Workers()-1.
var extraSlots atomic.Int64

func acquireSlot() bool {
	for {
		cur := extraSlots.Load()
		if cur >= int64(Workers()-1) {
			return false
		}
		if extraSlots.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseSlot() { extraSlots.Add(-1) }

// InUse reports how many helper goroutines beyond their callers are
// currently running — the pool's instantaneous occupancy, for telemetry
// gauges. Purely observational; the value is stale the moment it returns.
func InUse() int { return int(extraSlots.Load()) }

// TryGo runs fn on a helper goroutine that holds one slot of the global
// budget until fn returns, and counts it in wg. When no slot is free it
// starts nothing and reports false: the caller runs fn itself, later, or
// goes without the helper.
func TryGo(wg *sync.WaitGroup, fn func()) bool {
	if !acquireSlot() {
		return false
	}
	goHelper(&wg, fn, callFunc, 0, 0, 0)
	return true
}

func callFunc(fn func(), _, _, _ int) { fn() }

// goHelper runs body(a, lo, hi, c) on a helper goroutine that holds the
// slot its caller acquired until body returns, counted in *wg, which the
// first helper makes: every fan-out in the package starts its helpers
// here, so one that starts none allocates no wait state. The helper gets
// its own copy of a; with a capture-free body — a top-level func or a
// method expression — nothing else is allocated for it but the goroutine.
func goHelper[A any](wg **sync.WaitGroup, a A, body func(a A, lo, hi, c int), lo, hi, c int) {
	if *wg == nil {
		*wg = new(sync.WaitGroup)
	}
	(*wg).Add(1)
	go runHelper(*wg, a, body, lo, hi, c)
}

func runHelper[A any](wg *sync.WaitGroup, a A, body func(a A, lo, hi, c int), lo, hi, c int) {
	defer wg.Done()
	defer releaseSlot()
	body(a, lo, hi, c)
}

// FanOut runs fn in up to workers goroutines: fn(0) in the calling
// goroutine and fn(w) for w = 1.. in one helper goroutine per slot
// acquired from the same global budget the kernel helpers draw from, so
// the -threads pin bounds the process's total compute goroutines. When the
// budget is exhausted some worker indices never run, so fn must
// cooperatively drain a shared work queue and use its index only to select
// per-worker state. Drain is the form for a queue of n indexed jobs.
func FanOut(workers int, fn func(worker int)) {
	var wg *sync.WaitGroup
	for w := 1; w < workers && acquireSlot(); w++ {
		goHelper(&wg, fn, fanOutWorker, w, 0, 0)
	}
	fn(0)
	if wg != nil {
		wg.Wait()
	}
}

func fanOutWorker(fn func(worker int), w, _, _ int) { fn(w) }

// Drain runs job(w, i) for every i in [0, n): the caller, as worker 0, and
// up to workers-1 helpers claim indices from one counter, and w only
// selects per-worker state (a model replica, an arena). Coarse fan-outs —
// client training, evaluation, defense scoring, DFA synthesis — are built
// on it. The pool is elastic: whoever claims a job while more remain starts
// the next helper if a slot is free, so a slot another goroutine gives back
// mid-drain (the round's craft, a finished kernel) joins this queue instead
// of idling, and the total stays within the global budget throughout. The
// caller counts its claims locally until a helper starts; only then is the
// shared queue made.
func Drain(workers, n int, job func(worker, i int)) {
	for i := 0; i < n; i++ {
		if i+1 < n && workers > 1 && acquireSlot() {
			d := &drain{n: n, workers: workers, job: job, started: 2}
			d.next.Store(int64(i + 1))
			goHelper(&d.wg, d, (*drain).run, 1, 0, 0)
			job(0, i)
			d.run(0, 0, 0)
			d.wg.Wait()
			return
		}
		job(0, i)
	}
}

// drain is the job queue a Drain shares once it has a helper.
type drain struct {
	wg                  *sync.WaitGroup // set before the first helper starts
	next                atomic.Int64
	mu                  sync.Mutex // guards started
	started, n, workers int
	job                 func(worker, i int)
}

// run claims and runs jobs as worker w until the queue is empty.
func (d *drain) run(w, _, _ int) {
	for i := int(d.next.Add(1)) - 1; i < d.n; i = int(d.next.Add(1)) - 1 {
		if i+1 < d.n {
			d.mu.Lock()
			if d.started < d.workers && acquireSlot() {
				goHelper(&d.wg, d, (*drain).run, d.started, 0, 0)
				d.started++
			}
			d.mu.Unlock()
		}
		d.job(w, i)
	}
}

// chunkPlan splits [0, n) into contiguous chunks of at least minGrain
// indices, capped at the worker count. It returns the chunk count and size.
func chunkPlan(n, minGrain int) (chunks, size int) {
	if minGrain < 1 {
		minGrain = 1
	}
	workers := Workers()
	if workers <= 1 || n < 2*minGrain {
		return 1, n
	}
	chunks = (n + minGrain - 1) / minGrain
	if chunks > workers {
		chunks = workers
	}
	size = (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	return chunks, size
}

// ChunkCount returns the number of chunks ParallelChunks will split [0, n)
// into under the current worker-pool size, so callers can stage one
// scratch buffer per chunk before fanning out.
func ChunkCount(n, minGrain int) int {
	if n <= 0 {
		return 0
	}
	chunks, _ := chunkPlan(n, minGrain)
	return chunks
}

// ParallelFor splits the index range [0, n) into contiguous chunks and runs
// fn(lo, hi) on up to Workers() goroutines (including the caller). Chunks
// are at least minGrain indices long; when n < 2*minGrain or only one worker
// is configured the whole range runs inline. fn must write only to
// disjoint, index-addressed outputs: the decomposition into chunks must not
// influence the result, which keeps every kernel built on ParallelFor
// bit-identical regardless of the worker count. It is the closure form of
// ParallelChunks, for callers off the hot path.
func ParallelFor(n, minGrain int, fn func(lo, hi int)) {
	ParallelChunks(n, minGrain, n, fn, spanChunk) // no plan has more chunks than indices
}

func spanChunk(fn func(lo, hi int), lo, hi, _ int) { fn(lo, hi) }

// ParallelChunks is ParallelFor for hot kernels: chunk c, [lo, hi), runs
// body(a, lo, hi, c), and a capture-free body makes a call that starts no
// helper allocate nothing (see goHelper). The chunk index lets each chunk
// use a pre-staged scratch buffer (see ChunkCount). Chunk indices are
// dense in [0, min(ChunkCount(n, minGrain), maxChunks)): the clamp keeps a
// caller that staged buffers under an earlier ChunkCount reading safe even
// if the worker-pool size grows concurrently.
func ParallelChunks[A any](n, minGrain, maxChunks int, a A, body func(a A, lo, hi, chunk int)) {
	if n <= 0 {
		return
	}
	chunks, size := chunkPlan(n, minGrain)
	if chunks > maxChunks {
		chunks = max(maxChunks, 1)
		size = (n + chunks - 1) / chunks
		chunks = (n + size - 1) / size
	}
	var wg *sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := c*size, min(c*size+size, n)
		if acquireSlot() {
			goHelper(&wg, a, body, lo, hi, c)
		} else {
			body(a, lo, hi, c)
		}
	}
	body(a, 0, size, 0)
	if wg != nil {
		wg.Wait()
	}
}
