//go:build unix

package persist

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockJournal takes a non-blocking exclusive advisory flock on f, failing
// immediately when another process holds it. The kernel releases the lock
// when the descriptor closes — including on crash, so a dead owner never
// wedges the journal. The returned release is a no-op: closing f is the
// release. Contention surfaces as ErrLeaseHeld so callers can distinguish
// "another process owns this stream" from corruption.
func lockJournal(_ string, f *os.File) (func(), error) {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
			return nil, fmt.Errorf("%w: %v", ErrLeaseHeld, err)
		}
		return nil, err
	}
	return func() {}, nil
}

// flockFile takes a blocking advisory flock on f — shared for reads,
// exclusive for mutations — and returns its release. The shared journal
// holds these only for the duration of one operation, so N worker processes
// interleave rather than exclude each other.
func flockFile(f *os.File, _ string, exclusive bool) (func(), error) {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		return nil, fmt.Errorf("persist: shared journal lock: %w", err)
	}
	return func() { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }, nil
}
