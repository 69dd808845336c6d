package telemetry

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// NewOpsMux assembles the unified operator endpoint: Prometheus metrics at
// /metrics and the standard pprof handlers under /debug/pprof/. Callers
// mount further surfaces (the forensics JSON handlers under /forensics/)
// on the returned mux, so one listener serves the whole ops plane.
func NewOpsMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // client went away; nothing to do
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = reg.WriteJSON(w) // client went away; nothing to do
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// RegisterPoolGauges exposes the process-global tensor worker pool as
// scrape-time gauges: the configured width and the helper goroutines
// currently running. Callers pass the accessors (tensor.Workers,
// tensor.InUse) so this package stays free of kernel-layer imports.
func RegisterPoolGauges(reg *Registry, workers, inUse func() int) {
	if reg == nil {
		return
	}
	if workers != nil {
		reg.GaugeFunc("tensor_pool_workers",
			"Configured kernel worker-pool width (SetWorkers/-threads).",
			func() float64 { return float64(workers()) })
	}
	if inUse != nil {
		reg.GaugeFunc("tensor_pool_in_use",
			"Kernel helper goroutines currently running (pool occupancy).",
			func() float64 { return float64(inUse()) })
	}
}

// opsDrainTimeout bounds how long the shutdown function waits for in-flight
// requests to finish before hard-closing connections.
const opsDrainTimeout = 3 * time.Second

// ServeOps serves h on addr (e.g. ":9090", or ":0" for an ephemeral port)
// in a background goroutine for the lifetime of the run. It returns the
// bound address and a shutdown function.
//
// The shutdown function drains gracefully: it first cancels the server's
// base context — pprof's long /debug/pprof/profile and /trace requests
// (30 s by default, longer on request) watch their request context and
// end on cancellation, which a plain Shutdown would wait out — then calls Shutdown
// with a short deadline so regular scrapes in flight finish their
// responses, and only hard-closes connections that outlive the deadline.
// It reports the first real error from either the serve loop or the
// shutdown itself (http.ErrServerClosed is the normal exit, not an error).
//
// A connection that was dialed but has not sent a request yet (StateNew —
// an HTTP client's spare parallel dial parks exactly such a connection in
// its idle pool) carries nothing to drain, yet http.Server.Shutdown counts
// it as active for five seconds, longer than the drain deadline. The
// shutdown function closes such connections first, as http.Server.Shutdown
// itself closes keep-alive connections between requests (StateIdle).
func ServeOps(addr string, h http.Handler) (string, func() error, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	var (
		mu      sync.Mutex
		closing bool
		fresh   = make(map[net.Conn]struct{})
	)
	srv := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		ConnState: func(c net.Conn, s http.ConnState) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case s != http.StateNew:
				delete(fresh, c)
			case closing:
				_ = c.Close() // accepted during shutdown: nothing sent yet
			default:
				fresh[c] = struct{}{}
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	shutdown := func() error {
		cancel()
		mu.Lock()
		closing = true
		for c := range fresh {
			_ = c.Close() // no request read yet: nothing in flight to drain
		}
		mu.Unlock()
		ctx, done := context.WithTimeout(context.Background(), opsDrainTimeout)
		defer done()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Deadline expired with connections still open (a scraper
			// mid-download, a client not reading its response):
			// hard-close the stragglers, but the drain failure is the error
			// worth reporting.
			_ = srv.Close()
		}
		if serveErr := <-served; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
		return err
	}
	return lis.Addr().String(), shutdown, nil
}
