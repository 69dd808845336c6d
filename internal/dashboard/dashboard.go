// Package dashboard serves the embedded operator UI: a zero-dependency
// single page (hand-rolled HTML/JS/SVG, no npm, no CDN) that renders the
// forensics feed, the telemetry fleet view and the replay/diff API in a
// browser. The package deliberately imports nothing outside the standard
// library — the assets are compiled into the binary with go:embed, and the
// fllint zerodep analyzer enforces the import discipline — so every build
// that has the ops mux has the dashboard.
package dashboard

import (
	"encoding/json"
	"io/fs"
	"net/http"
)

// Config tells the UI what data services this process mounted. It is
// served verbatim at <prefix>/api/config; the page adapts its tabs to it.
type Config struct {
	// Title heads the page (defaults to "fl operator dashboard").
	Title string `json:"title"`
	// Federations lists the forensics route prefixes to render, one live
	// tab each, polling <prefix>/rounds: ["/forensics"] for a single run,
	// ["/forensics/alpha", …] for a multi-tenant host. Empty shows no live
	// tab. The fleet tab, over the ops mux's /metrics.json, is always shown.
	Federations []string `json:"federations"`
	// Replay shows the time-travel/diff tab backed by <prefix>/api/replay.
	Replay bool `json:"replay"`
}

// Prefix is the canonical mount point on the ops mux.
const Prefix = "/dash"

// Mount registers the UI under Prefix on mux: the embedded assets at
// /dash/ and the configuration the page bootstraps from at
// /dash/api/config. Data APIs (forensics routes, /metrics.json, the
// replay service) are mounted by the caller on the same mux.
func Mount(mux *http.ServeMux, cfg Config) {
	if cfg.Title == "" {
		cfg.Title = "fl operator dashboard"
	}
	if cfg.Federations == nil {
		cfg.Federations = []string{}
	}
	sub, err := fs.Sub(assetFS, "assets")
	if err != nil {
		// Impossible with a well-formed embed; fail loud at mount time.
		panic("dashboard: embedded assets missing: " + err.Error())
	}
	fileServer := http.FileServer(http.FS(sub))
	mux.Handle(Prefix+"/", http.StripPrefix(Prefix+"/", fileServer))
	mux.HandleFunc(Prefix+"/api/config", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(cfg)
	})
}
