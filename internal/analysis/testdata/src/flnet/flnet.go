// Fixture for the telemetryclock analyzer: package name "flnet" puts it
// in the instrumented hot-path set, so top-level time.Now/time.Since must
// be flagged, while telemetry.Nanos usage, time.Time
// methods on already-read values, and //lint:allow exemptions for OS
// deadlines stay silent.
package flnet

import (
	"net"
	"time"

	"repro/internal/telemetry"
)

func rawNow() time.Time {
	return time.Now() // want `call to time.Now on the round hot path bypasses the telemetry epoch`
}

func rawSince(start time.Time) time.Duration {
	return time.Since(start) // want `call to time.Since on the round hot path bypasses the telemetry epoch`
}

// sanctioned reads go through the telemetry clock, so phase spans and
// Chrome tracks all share one epoch.
func sanctioned() int64 {
	return telemetry.Nanos()
}

// methodsOnValues operate on timestamps already read; only the read
// itself needs to route through the telemetry clock.
func methodsOnValues(a, b time.Time) time.Duration {
	return b.Sub(a)
}

// deadline demonstrates the sanctioned OS-deadline exemption: the read
// feeds the kernel's socket timeout machinery, never a result.
func deadline(c net.Conn, timeout time.Duration) error {
	//lint:allow telemetryclock socket deadline feeds the OS, not results
	return c.SetReadDeadline(time.Now().Add(timeout))
}

// nonClockTimeCalls from package time (durations, parsing) carry no
// wall-clock read and must not be flagged.
func nonClockTimeCalls() (time.Duration, time.Time, error) {
	d := 3 * time.Second
	ts, err := time.Parse(time.RFC3339, "2023-06-27T00:00:00Z")
	return d, ts, err
}
