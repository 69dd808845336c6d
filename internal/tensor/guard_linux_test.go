//go:build linux

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps one read-write page followed by a PROT_NONE page and
// returns a carver for it: carve(n) is the n float64s that end flush
// against the guard, so touching the element past an operand's end faults.
// Each operand needs its own carver. The pages are unmapped when the test
// ends.
func guardedFloats(t *testing.T) (carve func(n int) []float64) {
	t.Helper()
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[ps:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return func(n int) []float64 {
		if 8*n > ps {
			t.Fatalf("guarded operand of %d floats exceeds a page", n)
		}
		return unsafe.Slice((*float64)(unsafe.Pointer(&mem[ps-8*n])), n)
	}
}
