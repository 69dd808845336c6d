package forensics

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// jf encodes a possibly-NaN float for JSON as a nullable pointer, the
// run-store convention (encoding/json rejects NaN).
func jf(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// fv decodes a nullable float back to its in-memory NaN form.
func fv(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// jsonFingerprint is Fingerprint's serialization shape: every component is
// nullable, since a zero-length or zero-norm update makes the cosine (and
// with one update, the neighbor distances) NaN.
type jsonFingerprint struct {
	L2          *float64 `json:"l2"`
	CosMean     *float64 `json:"cosMean"`
	MinNeighbor *float64 `json:"minNeighbor"`
	MedNeighbor *float64 `json:"medNeighbor"`
}

// MarshalJSON guards the fingerprint's NaN-able floats as nulls — the
// persistence-boundary convention nanjson enforces. Finite fingerprints
// render byte-identically to the raw struct, so existing journals keep
// their format.
func (f Fingerprint) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonFingerprint{jf(f.L2), jf(f.CosMean), jf(f.MinNeighbor), jf(f.MedNeighbor)})
}

// UnmarshalJSON inverts MarshalJSON, restoring nulls to NaN.
func (f *Fingerprint) UnmarshalJSON(b []byte) error {
	var j jsonFingerprint
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*f = Fingerprint{L2: fv(j.L2), CosMean: fv(j.CosMean), MinNeighbor: fv(j.MinNeighbor), MedNeighbor: fv(j.MedNeighbor)}
	return nil
}

// jsonRoundMetrics is the serialization shape of RoundMetrics.
type jsonRoundMetrics struct {
	Round         int  `json:"round"`
	Seq           int  `json:"seq"`
	Updates       int  `json:"updates"`
	Malicious     int  `json:"malicious"`
	Known         bool `json:"known"`
	ZeroSelection bool `json:"zeroSelection"`
	Confusion     `json:"confusion"`
	TPR           *float64 `json:"tpr"`
	FPR           *float64 `json:"fpr"`
	Precision     *float64 `json:"precision"`
	F1            *float64 `json:"f1"`
	AUC           *float64 `json:"auc"`
}

func metricsToJSON(m RoundMetrics) jsonRoundMetrics {
	return jsonRoundMetrics{
		Round:         m.Round,
		Seq:           m.Seq,
		Updates:       m.Updates,
		Malicious:     m.Malicious,
		Known:         m.Known,
		ZeroSelection: m.ZeroSelection,
		Confusion:     m.Confusion,
		TPR:           jf(m.TPR()),
		FPR:           jf(m.FPR()),
		Precision:     jf(m.Precision()),
		F1:            jf(m.F1()),
		AUC:           jf(m.AUC),
	}
}

// metricsFromJSON inverts metricsToJSON: the decode side the replay
// service needs to reconstruct a RoundAudit from its journal payload.
// Nullable metrics come back as NaN; the ratio metrics (TPR, FPR, …) are
// methods over the decoded Confusion, so only AUC is carried explicitly.
func metricsFromJSON(m jsonRoundMetrics) RoundMetrics {
	rm := RoundMetrics{
		Round:         m.Round,
		Seq:           m.Seq,
		Updates:       m.Updates,
		Malicious:     m.Malicious,
		Known:         m.Known,
		ZeroSelection: m.ZeroSelection,
		Confusion:     m.Confusion,
		AUC:           math.NaN(),
	}
	if m.AUC != nil {
		rm.AUC = *m.AUC
	}
	return rm
}

// jsonRoundAudit is the serialization shape of RoundAudit: the audit
// journal's line payload and the audit of each /rounds element.
type jsonRoundAudit struct {
	RoundAudit
	Metrics jsonRoundMetrics `json:"metrics"`
}

func auditToJSON(ra RoundAudit) jsonRoundAudit {
	return jsonRoundAudit{RoundAudit: ra, Metrics: metricsToJSON(ra.Metrics)}
}

func auditFromJSON(ja jsonRoundAudit) RoundAudit {
	ra := ja.RoundAudit
	ra.Metrics = metricsFromJSON(ja.Metrics)
	return ra
}

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
		var current *jsonRoundMetrics
		if len(rounds) > 0 {
			m := metricsToJSON(rounds[len(rounds)-1].Metrics)
			current = &m
		}
		jsonHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct { // single write; client-gone needs no cleanup
			Cumulative Summary           `json:"cumulative"`
			Current    *jsonRoundMetrics `json:"current"`
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
