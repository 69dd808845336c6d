package forensics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/persist"
)

// ReplayRound is one replayable aggregation: the audit itself plus the
// global-model accuracy at that round when the source recorded one
// (run-store Outcomes carry an accuracy timeline; audit journals do not).
type ReplayRound struct {
	Audit    RoundAudit    `json:"audit"`
	Accuracy persist.Float `json:"accuracy"` // NaN when the source has none
}

// ReplayRun is a finished run loaded for time-travel: an ordered round
// sequence with a display name and the source kind it came from.
type ReplayRun struct {
	Name   string
	Source string // "audit-journal" or "run-store"
	Rounds []ReplayRound
}

// AuditRun turns the entries of an audit journal (persist.ReadEntries)
// into a ReplayRun. Each entry is a RoundAudit keyed r%08d.%04d; rounds
// come back in (round, seq) order regardless of file order.
func AuditRun(entries []persist.Entry, name string) (ReplayRun, error) {
	run := ReplayRun{Name: name, Source: "audit-journal"}
	for _, e := range entries {
		rr := ReplayRound{Accuracy: persist.Float(math.NaN())}
		if err := json.Unmarshal(e.Payload, &rr.Audit); err != nil {
			return ReplayRun{}, fmt.Errorf("forensics: audit journal entry %s: %w", e.Key, err)
		}
		run.Rounds = append(run.Rounds, rr)
	}
	sort.SliceStable(run.Rounds, func(i, j int) bool {
		a, b := run.Rounds[i].Audit, run.Rounds[j].Audit
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Seq < b.Seq
	})
	return run, nil
}

// Replay serves loaded runs for the dashboard's time-travel and diff
// modes. It is immutable after construction, so handlers need no locking.
type Replay struct {
	runs   []ReplayRun
	byName map[string]int
}

// NewReplay indexes runs by name (later duplicates win, matching the
// last-wins convention of the run store itself).
func NewReplay(runs []ReplayRun) *Replay {
	rp := &Replay{runs: runs, byName: make(map[string]int, len(runs))}
	for i, r := range runs {
		rp.byName[r.Name] = i
	}
	return rp
}

// diffSide is one run's metric snapshot at an aligned round index.
type diffSide struct {
	Round    int           `json:"round"`
	TPR      persist.Float `json:"tpr"`
	FPR      persist.Float `json:"fpr"`
	AUC      persist.Float `json:"auc"`
	Accuracy persist.Float `json:"accuracy"`
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
}

func diffSideOf(rr ReplayRound) diffSide {
	m := rr.Audit.Metrics
	acc, rej := 0, 0
	for _, rec := range rr.Audit.Records {
		if !rec.Decided {
			continue
		}
		if rec.Accepted {
			acc++
		} else {
			rej++
		}
	}
	return diffSide{
		Round:    m.Round,
		TPR:      persist.Float(m.TPR()),
		FPR:      persist.Float(m.FPR()),
		AUC:      m.AUC,
		Accuracy: rr.Accuracy,
		Accepted: acc,
		Rejected: rej,
	}
}

// Mount registers the replay API under prefix on mux:
//
//	GET <prefix>/runs                 → [{"name", "source", "rounds"}…]
//	GET <prefix>/rounds?run=&from=&n= → {"run", "total", "from", "rounds": […]} (seek/step)
//	GET <prefix>/diff?a=&b=           → per-index aligned metric deltas
func (rp *Replay) Mount(mux *http.ServeMux, prefix string) {
	writeJSON := func(w http.ResponseWriter, v any) {
		jsonHeaders(w)
		_ = json.NewEncoder(w).Encode(v) // single write; client-gone needs no cleanup
	}
	mux.HandleFunc(prefix+"/runs", func(w http.ResponseWriter, r *http.Request) {
		type runInfo struct {
			Name   string `json:"name"`
			Source string `json:"source"`
			Rounds int    `json:"rounds"`
		}
		out := make([]runInfo, len(rp.runs))
		for i, run := range rp.runs {
			out[i] = runInfo{Name: run.Name, Source: run.Source, Rounds: len(run.Rounds)}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc(prefix+"/rounds", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := rp.byName[r.URL.Query().Get("run")]
		if !ok {
			http.Error(w, "forensics: unknown replay run", http.StatusNotFound)
			return
		}
		run := rp.runs[idx]
		from, n := 0, len(run.Rounds)
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "forensics: from must be a non-negative integer", http.StatusBadRequest)
				return
			}
			from = v
		}
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "forensics: n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		// Clamped before adding, so from+n cannot wrap past int's range.
		from = min(from, len(run.Rounds))
		n = min(n, len(run.Rounds)-from)
		writeJSON(w, struct {
			Run    string        `json:"run"`
			Total  int           `json:"total"`
			From   int           `json:"from"`
			Rounds []ReplayRound `json:"rounds"`
		}{run.Name, len(run.Rounds), from, run.Rounds[from : from+n]})
	})
	mux.HandleFunc(prefix+"/diff", func(w http.ResponseWriter, r *http.Request) {
		ai, aok := rp.byName[r.URL.Query().Get("a")]
		bi, bok := rp.byName[r.URL.Query().Get("b")]
		if !aok || !bok {
			http.Error(w, "forensics: diff needs two known runs (a=, b=)", http.StatusNotFound)
			return
		}
		a, b := rp.runs[ai], rp.runs[bi]
		n := len(a.Rounds)
		if len(b.Rounds) < n {
			n = len(b.Rounds)
		}
		type diffRow struct {
			Index int      `json:"index"`
			A     diffSide `json:"a"`
			B     diffSide `json:"b"`
			Delta struct {
				TPR      persist.Float `json:"tpr"`
				FPR      persist.Float `json:"fpr"`
				AUC      persist.Float `json:"auc"`
				Accuracy persist.Float `json:"accuracy"`
			} `json:"delta"`
		}
		rows := make([]diffRow, n)
		for i := 0; i < n; i++ {
			// A delta exists only when both sides measured the value: NaN
			// propagates through the subtraction and writes as null.
			sa, sb := diffSideOf(a.Rounds[i]), diffSideOf(b.Rounds[i])
			row := diffRow{Index: i, A: sa, B: sb}
			row.Delta.TPR = sa.TPR - sb.TPR
			row.Delta.FPR = sa.FPR - sb.FPR
			row.Delta.AUC = sa.AUC - sb.AUC
			row.Delta.Accuracy = sa.Accuracy - sb.Accuracy
			rows[i] = row
		}
		writeJSON(w, struct {
			A       string    `json:"a"`
			B       string    `json:"b"`
			Aligned int       `json:"aligned"`
			AExtra  int       `json:"aExtra"`
			BExtra  int       `json:"bExtra"`
			Rounds  []diffRow `json:"rounds"`
		}{a.Name, b.Name, n, len(a.Rounds) - n, len(b.Rounds) - n, rows})
	})
}
