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
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer releaseSlot()
		fn()
	}()
	return true
}

// FanOut runs fn in up to workers goroutines: fn(0) in the calling
// goroutine and fn(w) for w = 1.. in one helper goroutine per slot
// acquired from the same global budget the kernel helpers draw from, so
// the -threads pin bounds the process's total compute goroutines. When the
// budget is exhausted some worker indices never run, so fn must
// cooperatively drain a shared work queue and use its index only to select
// per-worker state. Drain is the form for a queue of n indexed jobs.
func FanOut(workers int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		if !TryGo(&wg, func() { fn(w) }) {
			break
		}
	}
	fn(0)
	wg.Wait()
}

// Drain runs job(w, i) for every i in [0, n): the caller, as worker 0, and
// up to workers-1 helpers claim indices from one counter, and w only
// selects per-worker state (a model replica, an arena). Coarse fan-outs —
// client training, evaluation, defense scoring, DFA synthesis — are built
// on it. The pool is elastic: whoever claims a job while more remain starts
// the next helper if a slot is free, so a slot another goroutine gives back
// mid-drain (the round's craft, a finished kernel) joins this queue instead
// of idling, and the total stays within the global budget throughout.
func Drain(workers, n int, job func(worker, i int)) {
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		mu      sync.Mutex // guards started
		started = 1
	)
	var run func(w int)
	run = func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n {
				mu.Lock()
				if h := started; h < workers && TryGo(&wg, func() { run(h) }) {
					started++
				}
				mu.Unlock()
			}
			job(w, i)
		}
	}
	run(0)
	wg.Wait()
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

// ChunkCount returns the number of chunks ParallelForChunks will split
// [0, n) into under the current worker-pool size, so callers can stage one
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
// bit-identical regardless of the worker count.
func ParallelFor(n, minGrain int, fn func(lo, hi int)) {
	parallelFor(n, minGrain, int(^uint(0)>>1), fn, nil)
}

// ParallelForChunks is ParallelFor with the chunk index passed to fn, so
// each chunk can use a pre-staged scratch buffer (see ChunkCount). Chunk
// indices are dense in [0, ChunkCount(n, minGrain)).
func ParallelForChunks(n, minGrain int, fn func(lo, hi, chunk int)) {
	ParallelForChunksCap(n, minGrain, int(^uint(0)>>1), fn)
}

// ParallelForChunksCap is ParallelForChunks with the chunk count clamped to
// maxChunks, so a caller that staged buffers under an earlier ChunkCount
// reading stays safe even if the worker-pool size grows concurrently.
func ParallelForChunksCap(n, minGrain, maxChunks int, fn func(lo, hi, chunk int)) {
	parallelFor(n, minGrain, maxChunks, nil, fn)
}

// parallelFor is the one body of the ParallelFor family. Exactly one of
// span and chunked is set, and each chunk calls it directly: wrapping the
// first in a closure of the second's signature would cost every call a heap
// object, inline ones included.
func parallelFor(n, minGrain, maxChunks int, span func(lo, hi int), chunked func(lo, hi, chunk int)) {
	if n <= 0 {
		return
	}
	chunks, size := chunkPlan(n, minGrain)
	if chunks > maxChunks {
		chunks = maxChunks
		if chunks < 1 {
			chunks = 1
		}
		size = (n + chunks - 1) / chunks
		chunks = (n + size - 1) / size
	}
	if chunks == 1 {
		runChunk(span, chunked, 0, n, 0)
		return
	}
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if acquireSlot() {
			wg.Add(1)
			go func(lo, hi, c int) {
				defer wg.Done()
				defer releaseSlot()
				runChunk(span, chunked, lo, hi, c)
			}(lo, hi, c)
		} else {
			runChunk(span, chunked, lo, hi, c)
		}
	}
	runChunk(span, chunked, 0, size, 0)
	wg.Wait()
}

// runChunk runs chunk c, [lo, hi), through whichever of span and chunked
// is set.
func runChunk(span func(lo, hi int), chunked func(lo, hi, chunk int), lo, hi, c int) {
	if chunked != nil {
		chunked(lo, hi, c)
		return
	}
	span(lo, hi)
}
