//go:build race

package tensor

// raceEnabled reports whether the race detector is active; the
// zero-allocation guards skip under it because instrumentation and the
// detector's sync.Pool draining allocate.
const raceEnabled = true
