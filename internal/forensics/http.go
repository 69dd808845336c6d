package forensics

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// jsonHeaders marks a response as uncacheable JSON. Every endpoint here
// reports live, per-round state; a cached 200 would show an operator a
// stale detection picture, so no-store is part of the contract.
func jsonHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
}

// Mount registers the live detection analytics under prefix on mux:
//
//	GET <prefix>/metrics         → {"cumulative": Summary, "current": RoundMetrics|null}
//	GET <prefix>/rounds[?since=N] → {"cursor": C, "rounds": [{"cursor": n, "audit": RoundAudit}…]}
//
// /rounds is the one read of the in-memory ring (see EventsSince): the
// audits with cursor > since (default 0, the whole ring), oldest first,
// and the head cursor C a poller passes as its next since. All JSON
// responses are uncacheable; NaN-able metrics are null. The collector has
// no listener of its own: the ops plane mounts it under "/forensics" (or
// "/forensics/<id>") beside the Prometheus /metrics.
func (c *Collector) Mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc(prefix+"/metrics", func(w http.ResponseWriter, r *http.Request) {
		rounds := c.Rounds()
		var current *RoundMetrics
		if len(rounds) > 0 {
			current = &rounds[len(rounds)-1].Metrics
		}
		jsonHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct { // single write; client-gone needs no cleanup
			Cumulative Summary       `json:"cumulative"`
			Current    *RoundMetrics `json:"current"`
		}{c.Summary(), current})
	})
	mux.HandleFunc(prefix+"/rounds", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "forensics: since must be an unsigned integer", http.StatusBadRequest)
				return
			}
			since = v
		}
		events, cursor := c.EventsSince(since)
		jsonHeaders(w)
		_ = json.NewEncoder(w).Encode(struct { // single write; client-gone needs no cleanup
			Cursor uint64  `json:"cursor"`
			Rounds []Event `json:"rounds"`
		}{cursor, events})
	})
}
