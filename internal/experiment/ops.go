package experiment

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/dashboard"
	"repro/internal/forensics"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Watch says how a process is watched while it runs: where its ops endpoint
// listens, whether the dashboard rides it, where the decision audit and the
// spans are written. It is the counterpart of Config: Config names a run
// and is hashed into run-store keys; a Watch is never hashed, serialized or
// normalized into a Config, so watching a run cannot change its identity or
// (observation is pure) its results. The zero value watches nothing.
type Watch struct {
	// OpsAddr, when non-empty, serves the ops endpoint over HTTP at this
	// address until the plane closes: Prometheus text at /metrics, its JSON
	// twin at /metrics.json, pprof under /debug/pprof/, and every audited
	// federation's forensics JSON under /forensics/ (or /forensics/<id>/).
	OpsAddr string
	// Dash mounts the embedded operator dashboard (internal/dashboard) at
	// /dash/ on the ops endpoint; without an OpsAddr it listens on
	// 127.0.0.1:0. A watched single run is audited when Dash is set.
	Dash bool
	// DashReplay lists journal paths (comma-separated; audit journals or
	// run stores) loaded into the dashboard's time-travel/diff tab.
	// Requires Dash.
	DashReplay string
	// AuditPath, when non-empty, journals every defense decision to a JSONL
	// audit journal at this path; a federation with an id writes to
	// AuditPath + "-" + id. A watched single run is audited when it is set.
	AuditPath string
	// TracePath, when non-empty, receives the buffered spans as a Chrome
	// trace-event JSON file (Perfetto / chrome://tracing) when the plane
	// closes — on every exit path, a failed run included.
	TracePath string
	// TraceJournal, when non-empty, receives the same spans as JSONL.
	TraceJournal string
	// OnBound, when non-nil, receives the ops listener's resolved address
	// once it is serving and before anything runs — how an ephemeral ":0"
	// bind prints its real port.
	OnBound func(addr string)
}

// BindFlags registers the watch flags every binary shares.
func (w *Watch) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&w.OpsAddr, "ops-addr", "", "serve the ops endpoint over HTTP at this address, e.g. :9090: Prometheus metrics at /metrics, pprof under /debug/pprof/, forensics JSON under /forensics/ (or /forensics/<id>/ per federation) (empty = off)")
	fs.BoolVar(&w.Dash, "dash", false, "mount the embedded operator dashboard at /dash/ on the ops endpoint (defaults -ops-addr to 127.0.0.1:0 when unset)")
	fs.StringVar(&w.DashReplay, "dash-replay", "", "comma-separated journal paths (audit journals or run stores) to load into the dashboard's time-travel/diff tab (requires -dash)")
	fs.StringVar(&w.TracePath, "trace", "", "write the process's spans (rounds and engine phases of a run or federation, cells of a sweep) as a Chrome trace-event JSON file, loadable in Perfetto or chrome://tracing, on exit (never changes results)")
	fs.StringVar(&w.TraceJournal, "trace-journal", "", "append the same spans to a JSONL trace journal at this path on exit")
}

// normalize applies the rules between the watch values.
func (w *Watch) normalize() error {
	if w.DashReplay != "" && !w.Dash {
		return fmt.Errorf("experiment: -dash-replay requires -dash")
	}
	if w.Dash && w.OpsAddr == "" {
		w.OpsAddr = "127.0.0.1:0"
	}
	return nil
}

// Plane is one process's ops plane: the registry, tracer, ops listener,
// dashboard and decision-audit collectors a Watch asks for, assembled once
// and drained once. A nil *Plane is the unwatched state: every method is
// safe on it and hands out the disabled instrument, so callers do not
// branch on whether they are watched. Its methods are for the goroutine
// that opened it; the instruments it hands out are concurrency-safe.
type Plane struct {
	watch    Watch
	reg      *telemetry.Registry // nil unless some telemetry sink exists
	tracer   *telemetry.Tracer   // nil unless a trace file was asked for
	mux      *http.ServeMux      // nil without an ops endpoint
	shutdown func() error
	audits   []audit
}

// audit is one collector the plane handed out, with its route prefix.
type audit struct {
	prefix string
	col    *forensics.Collector
}

// forensicsPrefix is where a federation's forensics JSON mounts: the sole
// (unnamed) federation at /forensics, a named one at /forensics/<id>.
func forensicsPrefix(id string) string {
	if id == "" {
		return "/forensics"
	}
	return "/forensics/" + id
}

// OpenPlane assembles the ops plane w asks for, or returns nil when w
// watches nothing. federations names the federations that will ask for a
// Collector — "" for a single run or a single-tenant server, the tenant ids
// for a host, none for a sweep or a client — so the dashboard can open one
// live tab each. Telemetry is on exactly when a sink exists (OpsAddr,
// TracePath or TraceJournal).
func OpenPlane(w Watch, title string, federations ...string) (*Plane, error) {
	if err := w.normalize(); err != nil {
		return nil, err
	}
	tracing := w.TracePath != "" || w.TraceJournal != ""
	if w.OpsAddr == "" && w.AuditPath == "" && !tracing {
		return nil, nil
	}
	replay, err := LoadDashReplay(w.DashReplay)
	if err != nil {
		return nil, err
	}
	p := &Plane{watch: w}
	if tracing {
		p.tracer = telemetry.NewTracer(0)
	}
	if w.OpsAddr != "" || tracing {
		// Pure observation: the registry and tracer never touch an RNG
		// stream or the aggregation order.
		p.reg = telemetry.NewRegistry()
		telemetry.RegisterPoolGauges(p.reg, tensor.Workers, tensor.InUse)
	}
	if w.OpsAddr != "" {
		p.mux = telemetry.NewOpsMux(p.reg)
		if w.Dash {
			if len(replay) > 0 {
				forensics.NewReplay(replay).Mount(p.mux, dashboard.Prefix+"/api/replay")
			}
			var prefixes []string
			for _, id := range federations {
				prefixes = append(prefixes, forensicsPrefix(id))
			}
			dashboard.Mount(p.mux, dashboard.Config{
				Title:       title,
				Federations: prefixes,
				Replay:      len(replay) > 0,
			})
		}
		bound, shutdown, err := telemetry.ServeOps(w.OpsAddr, p.mux)
		if err != nil {
			return nil, fmt.Errorf("experiment: ops endpoint: %w", err)
		}
		p.shutdown = shutdown
		if w.OnBound != nil {
			w.OnBound(bound)
		}
	}
	return p, nil
}

// auditsRuns reports whether the watch asks for a single run's decisions to
// be audited even when its Config does not.
func (p *Plane) auditsRuns() bool {
	return p != nil && (p.watch.AuditPath != "" || p.watch.Dash)
}

// Collector builds the decision-audit collector of federation id ("" for
// the sole federation), journaled to the watch's audit path and mounted
// under the federation's /forensics prefix when there is an ops endpoint.
// Close closes it again, so error paths need not. On a nil plane it is a
// plain in-memory collector.
func (p *Plane) Collector(id string, opts forensics.Options) (*forensics.Collector, error) {
	if p != nil && p.watch.AuditPath != "" {
		opts.AuditPath = p.watch.AuditPath
		if id != "" {
			opts.AuditPath += "-" + id
		}
	}
	col, err := forensics.NewCollector(opts)
	if err != nil || p == nil {
		return col, err
	}
	prefix := forensicsPrefix(id)
	p.audits = append(p.audits, audit{prefix, col})
	if p.mux != nil {
		col.Mount(p.mux, prefix)
	}
	return col, nil
}

// Registry returns the plane's metrics registry (nil when telemetry is
// off), the value flnet.ServerConfig.Metrics takes.
func (p *Plane) Registry() *telemetry.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Tracer returns the plane's span tracer (nil unless a trace file was asked
// for), the value flnet.ServerConfig.Tracer and flnet.Host.Tracer take.
func (p *Plane) Tracer() *telemetry.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// Engine returns the round-engine instruments of one federation ("" for
// the sole one); nil when telemetry is off.
func (p *Plane) Engine(federation string) *telemetry.EngineTelemetry {
	if p == nil {
		return nil
	}
	return telemetry.NewEngineTelemetry(p.reg, p.tracer, federation)
}

// Sweep returns one sweep worker's instruments; nil when telemetry is off.
func (p *Plane) Sweep(owner string) *telemetry.SweepTelemetry {
	if p == nil {
		return nil
	}
	return telemetry.NewSweepTelemetry(p.reg, p.tracer, owner)
}

// Close drains the plane newest-first — the collectors (which flushes and
// closes their audit journals), then the ops listener — then writes the
// trace files, and returns the first real error. It runs every step
// whatever failed before it, so a failed run still leaves its trace.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	var first error
	keep := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("experiment: %s: %w", what, err)
		}
	}
	for i := len(p.audits) - 1; i >= 0; i-- {
		// A lost audit line is lost evidence, not something to discard on
		// the way out.
		keep("forensics audit "+p.audits[i].prefix, p.audits[i].col.Close())
	}
	if p.shutdown != nil {
		keep("ops endpoint shutdown", p.shutdown())
	}
	if p.watch.TracePath != "" {
		keep("trace", writeChromeTrace(p.tracer, p.watch.TracePath))
	}
	if p.watch.TraceJournal != "" {
		keep("trace", p.tracer.WriteJournal(p.watch.TraceJournal))
	}
	return first
}

// CloseInto closes the plane at the end of the function that opened it
// (defer it) and reports a close failure through *err — unless the work
// itself already failed: a run error is never masked by a close error.
func (p *Plane) CloseInto(err *error) {
	if cerr := p.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// writeChromeTrace exports the tracer's buffered spans as a Chrome
// trace-event JSON file (loadable in Perfetto / chrome://tracing).
func writeChromeTrace(tr *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
