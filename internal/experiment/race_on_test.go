//go:build race

package experiment

// raceEnabled reports whether the race detector is active; the canonical
// digests skip under it, where their 23 trained cells take minutes.
const raceEnabled = true
