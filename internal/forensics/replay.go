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
	Audit    RoundAudit
	Accuracy float64 // NaN when the source has none
}

// ReplayRun is a finished run loaded for time-travel: an ordered round
// sequence with a display name and the source kind it came from.
type ReplayRun struct {
	Name   string
	Source string // "audit-journal" or "run-store"
	Rounds []ReplayRound
}

// LoadAuditJournal loads a PR-5 JSONL audit journal as a ReplayRun. Lines
// are the journal's jsonRoundAudit payloads keyed r%08d.%04d; entries come
// back in (round, seq) order regardless of file order, and a torn final
// line is tolerated exactly as the live journal's replay would tolerate it.
func LoadAuditJournal(path, name string) (ReplayRun, error) {
	entries, err := persist.ReadEntries(path)
	if err != nil {
		return ReplayRun{}, err
	}
	run := ReplayRun{Name: name, Source: "audit-journal"}
	for _, e := range entries {
		var ja jsonRoundAudit
		if err := json.Unmarshal(e.Payload, &ja); err != nil {
			return ReplayRun{}, fmt.Errorf("forensics: audit journal %s entry %s: %w", path, e.Key, err)
		}
		run.Rounds = append(run.Rounds, ReplayRound{Audit: auditFromJSON(ja), Accuracy: math.NaN()})
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

// jsonReplayRound is the wire shape of one replayed round.
type jsonReplayRound struct {
	Audit    jsonRoundAudit `json:"audit"`
	Accuracy *float64       `json:"accuracy"`
}

func replayRoundToJSON(rr ReplayRound) jsonReplayRound {
	return jsonReplayRound{Audit: auditToJSON(rr.Audit), Accuracy: jf(rr.Accuracy)}
}

// diffSide is one run's metric snapshot at an aligned round index.
type diffSide struct {
	Round    int      `json:"round"`
	TPR      *float64 `json:"tpr"`
	FPR      *float64 `json:"fpr"`
	AUC      *float64 `json:"auc"`
	Accuracy *float64 `json:"accuracy"`
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
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
		TPR:      jf(m.TPR()),
		FPR:      jf(m.FPR()),
		AUC:      jf(m.AUC),
		Accuracy: jf(rr.Accuracy),
		Accepted: acc,
		Rejected: rej,
	}
}

// delta subtracts metric pointers, propagating null: a delta exists only
// when both sides measured the value.
func delta(a, b *float64) *float64 {
	if a == nil || b == nil {
		return nil
	}
	d := *a - *b
	return &d
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
		rounds := make([]jsonReplayRound, 0, n)
		for _, rr := range run.Rounds[from : from+n] {
			rounds = append(rounds, replayRoundToJSON(rr))
		}
		writeJSON(w, struct {
			Run    string            `json:"run"`
			Total  int               `json:"total"`
			From   int               `json:"from"`
			Rounds []jsonReplayRound `json:"rounds"`
		}{run.Name, len(run.Rounds), from, rounds})
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
				TPR      *float64 `json:"tpr"`
				FPR      *float64 `json:"fpr"`
				AUC      *float64 `json:"auc"`
				Accuracy *float64 `json:"accuracy"`
			} `json:"delta"`
		}
		rows := make([]diffRow, n)
		for i := 0; i < n; i++ {
			sa, sb := diffSideOf(a.Rounds[i]), diffSideOf(b.Rounds[i])
			row := diffRow{Index: i, A: sa, B: sb}
			row.Delta.TPR = delta(sa.TPR, sb.TPR)
			row.Delta.FPR = delta(sa.FPR, sb.FPR)
			row.Delta.AUC = delta(sa.AUC, sb.AUC)
			row.Delta.Accuracy = delta(sa.Accuracy, sb.Accuracy)
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
