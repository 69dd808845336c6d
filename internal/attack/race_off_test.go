//go:build !race

package attack

// raceEnabled reports whether the race detector is active; the allocation
// guards skip under it because instrumentation allocates.
const raceEnabled = false
