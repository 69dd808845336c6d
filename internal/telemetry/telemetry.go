// Package telemetry is the reproduction's zero-dependency runtime
// observability layer: per-phase spans over the federated round loop, an
// atomic metrics registry exposed in Prometheus text format, and trace
// export to Chrome trace-event JSON and to a JSONL journal.
//
// Two disciplines govern every instrument in this package:
//
//  1. Observation never changes results. Spans and metrics read the wall
//     clock and atomic counters only; they never touch an engine RNG
//     stream, reorder an update sequence, or feed a value into anything
//     runKey-relevant. Fixed-seed runs are bit-identical with telemetry on
//     or off (TestTelemetryOnOffBitIdentical, on both transports).
//
//  2. Disabled telemetry is free. Every hot-path type is nil-safe — a nil
//     *EngineTelemetry, *Tracer, *Counter or *Histogram no-ops — and the
//     span type is a value, so an uninstrumented round performs zero
//     additional allocations (TestDisabledTelemetryZeroAlloc).
//
// Wall-clock reads in instrumented packages are corralled here: fllint's
// telemetryclock analyzer forbids direct time.Now/time.Since calls in the
// engine/defense/codec hot paths, so every clock value stays inside
// telemetry state where it can never reach a seed, a tie-breaker or a run
// key.
package telemetry

import "time"

// epoch anchors every span timestamp: all nanosecond readings are
// monotonic offsets from process start, so traces are immune to wall-clock
// adjustments and cheap to subtract.
var epoch = time.Now()

// Nanos returns monotonic nanoseconds since process start, the time base
// of every span. Use it to timestamp an operation whose begin and end are
// observed in different stack frames (e.g. an admission-queue wait).
func Nanos() int64 { return time.Since(epoch).Nanoseconds() }
