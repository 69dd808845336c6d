package flnet

import "repro/internal/telemetry"

// fedTelemetry bundles one federation's host-side instruments: the shared
// engine telemetry (rounds, phases, codec bytes) plus the membership
// surface — join handshakes, admission-queue depth and wait, drain
// requests. All methods are nil-safe, so the un-instrumented path costs one
// nil check, and every instrument is labelled federation="<id>" so
// co-hosted tenants stay distinguishable on one registry. Pure observation:
// nothing here touches the round loop's RNG streams or update ordering.
type fedTelemetry struct {
	engine *telemetry.EngineTelemetry
	tracer *telemetry.Tracer
	track  int32

	joins      *telemetry.Counter
	rejects    *telemetry.Counter
	queueDepth *telemetry.Gauge
	queueWait  *telemetry.Histogram
	drains     *telemetry.Counter
	rejected   *telemetry.Counter
	broken     *telemetry.Counter
}

// newFedTelemetry registers one federation's instruments from its config;
// nil when the config attaches neither a registry nor a tracer.
func newFedTelemetry(cfg ServerConfig, id string) *fedTelemetry {
	reg, tr := cfg.Metrics, cfg.Tracer
	if reg == nil && tr == nil {
		return nil
	}
	var labels []telemetry.Label
	track := "engine"
	if id != "" {
		labels = []telemetry.Label{{Key: "federation", Value: id}}
		track = "federation/" + id
	}
	return &fedTelemetry{
		engine: telemetry.NewEngineTelemetry(reg, tr, id),
		tracer: tr,
		track:  tr.Track(track),
		joins: reg.Counter("flnet_joins_total",
			"Join handshakes admitted as members.", labels...),
		rejects: reg.Counter("flnet_join_rejects_total",
			"Join handshakes rejected (identity, codec, closed, queue full) or failed.", labels...),
		queueDepth: reg.Gauge("flnet_pending_joins",
			"Handshakes currently waiting in the admission queue.", labels...),
		queueWait: reg.Histogram("flnet_join_queue_wait_seconds",
			"Time a handshake waited in the admission queue before being served.", labels...),
		drains: reg.Counter("flnet_drains_total",
			"Graceful drain requests.", labels...),
		rejected: reg.Counter("flnet_updates_rejected_total",
			"Read updates dropped for bad framing (foreign client ID, wrong body kind, undecodable frame, wrong codec spec); content is fl_updates_rejected_total's.", labels...),
		broken: reg.Counter("flnet_sessions_broken_total",
			"Sessions closed because their byte stream lost sync (I/O error, deadline inside a message, protocol violation).", labels...),
	}
}

// engineTelemetry returns the engine instrument set (nil when disabled).
func (t *fedTelemetry) engineTelemetry() *telemetry.EngineTelemetry {
	if t == nil {
		return nil
	}
	return t.engine
}

// handshake opens the span covering one join handshake.
func (t *fedTelemetry) handshake() telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.tracer.Start(t.track, "join-handshake")
}

// admitted counts a handshake outcome.
func (t *fedTelemetry) admitted(ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.joins.Inc()
	} else {
		t.rejects.Inc()
	}
}

// enqueueNanos timestamps an admission-queue entry (0 when disabled).
func (t *fedTelemetry) enqueueNanos() int64 {
	if t == nil {
		return 0
	}
	t.queueDepth.Add(1)
	return telemetry.Nanos()
}

// unqueued rebalances the depth gauge for an entry that never made it into
// the queue (the bounded send lost the race to a join storm).
func (t *fedTelemetry) unqueued() {
	if t != nil {
		t.queueDepth.Add(-1)
	}
}

// dequeued records one queue exit: depth down, wait observed, and the wait
// emitted as a queue-wait span so trace rows show admission latency.
func (t *fedTelemetry) dequeued(enqueuedNs int64) {
	if t == nil {
		return
	}
	t.queueDepth.Add(-1)
	wait := telemetry.Nanos() - enqueuedNs
	t.queueWait.ObserveNanos(wait)
	t.tracer.Emit(t.track, "queue-wait", enqueuedNs, wait)
}

// drained counts a graceful drain request and marks it on the trace row.
func (t *fedTelemetry) drained() {
	if t == nil {
		return
	}
	t.drains.Inc()
	t.tracer.Emit(t.track, "drain-requested", telemetry.Nanos(), 0)
}

// updateRejected counts an update dropped for bad framing.
func (t *fedTelemetry) updateRejected() {
	if t != nil {
		t.rejected.Inc()
	}
}

// sessionBroken counts a session lost to a desynchronized stream.
func (t *fedTelemetry) sessionBroken() {
	if t != nil {
		t.broken.Inc()
	}
}

// bytesIn counts real update wire bytes received (codec frame length, or
// 8 bytes per coordinate for dense updates). Safe from the
// concurrent per-session collect goroutines — counters are atomic.
func (t *fedTelemetry) bytesIn(n int) {
	if t != nil {
		t.engine.AddBytesIn(n)
	}
}
