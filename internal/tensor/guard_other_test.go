//go:build !linux

package tensor

import "testing"

// guardedFloats is unavailable off linux: the guard-page placement of
// TestGEMMBitExact is skipped.
func guardedFloats(t *testing.T) func(n int) []float64 { return nil }
