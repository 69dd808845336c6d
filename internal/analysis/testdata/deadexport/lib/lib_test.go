package lib

import "testing"

// A test's use keeps nothing alive.
func TestUses(t *testing.T) {
	Unused()
	Allowed()
}
