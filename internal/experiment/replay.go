package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/forensics"
	"repro/internal/persist"
)

// auditKeyRe matches the audit journal's line keys (r%08d.%04d), the
// sniff that tells a PR-5 audit journal apart from a run store.
var auditKeyRe = regexp.MustCompile(`^r\d{8}\.\d{4}$`)

// LoadDashReplay loads the comma-separated journal paths behind the
// -dash-replay flag into replay runs for the dashboard's time-travel/diff
// tab. Each path is sniffed by its first line key: audit journals carry
// r<round>.<seq> keys and replay with full per-update records; run stores
// carry outcome hashes and replay from their stored round traces (see
// outcomeReplayRuns for what that trace can and cannot reconstruct). An
// empty spec returns no runs.
func LoadDashReplay(spec string) ([]forensics.ReplayRun, error) {
	var runs []forensics.ReplayRun
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		entries, err := persist.ReadEntries(path)
		if err != nil {
			return nil, fmt.Errorf("experiment: dash replay: %w", err)
		}
		if len(entries) == 0 {
			continue
		}
		base := filepath.Base(path)
		if auditKeyRe.MatchString(entries[0].Key) {
			run, err := forensics.AuditRun(entries, base)
			if err != nil {
				return nil, fmt.Errorf("experiment: dash replay %s: %w", path, err)
			}
			runs = append(runs, run)
			continue
		}
		outRuns, err := outcomeReplayRuns(entries, base)
		if err != nil {
			return nil, fmt.Errorf("experiment: dash replay %s: %w", path, err)
		}
		runs = append(runs, outRuns...)
	}
	return runs, nil
}

// outcomeReplayRuns converts a run store's outcome records into replay
// runs, one per stored cell. The round trace knows how many malicious
// clients were selected and how many the defense passed, so true/false
// negatives are reconstructible (TP = selMal − passMal, FN = passMal);
// it records nothing about rejected benign clients, so FP/TN stay zero
// and the FPR side of the diff reads null rather than a fabricated 0.
// Defenses that expose no selection report PassedMalicious = −1 — those
// rounds keep an all-zero confusion ("unknown"), again surfacing as null.
func outcomeReplayRuns(entries []persist.Entry, source string) ([]forensics.ReplayRun, error) {
	var runs []forensics.ReplayRun
	seen := map[string]int{} // journal is last-wins: later records replace
	for _, e := range entries {
		if persist.IsLeaseKey(e.Key) {
			continue
		}
		var rec storedOutcome
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			return nil, fmt.Errorf("record %s: %w", e.Key, err)
		}
		out := decodeOutcome(rec)
		if len(out.Trace) == 0 {
			continue
		}
		run := forensics.ReplayRun{Name: replayRunName(e.Key, out), Source: "run-store"}
		for i, rs := range out.Trace {
			rm := forensics.RoundMetrics{
				Round:         rs.Round,
				Updates:       rs.Selected,
				Malicious:     rs.SelectedMalicious,
				Known:         rs.PassedMalicious >= 0,
				ZeroSelection: rs.Aggregations == 0,
				AUC:           persist.Float(math.NaN()),
			}
			if rm.Known {
				rm.TP = rs.SelectedMalicious - rs.PassedMalicious
				rm.FN = rs.PassedMalicious
			}
			acc := math.NaN()
			if i < len(out.AccTimeline) {
				acc = out.AccTimeline[i]
			}
			run.Rounds = append(run.Rounds, forensics.ReplayRound{
				Audit: forensics.RoundAudit{
					Round:         rs.Round,
					Defense:       out.Config.Defense,
					ZeroSelection: rm.ZeroSelection,
					Metrics:       rm,
				},
				Accuracy: persist.Float(acc),
			})
		}
		if prev, ok := seen[run.Name]; ok {
			runs[prev] = run
			continue
		}
		seen[run.Name] = len(runs)
		runs = append(runs, run)
	}
	return runs, nil
}

// replayRunName labels a stored cell for the run picker: the experiment
// axes an operator tells cells apart by, plus a key prefix to break ties
// between cells differing only in axes the label does not show.
func replayRunName(key string, out *Outcome) string {
	c := out.Config
	name := fmt.Sprintf("%s/%s/%s f=%.2f s=%d", c.Dataset, c.Attack, c.Defense, c.AttackerFrac, c.Seed)
	if len(key) > 8 {
		key = key[:8]
	}
	return name + " [" + key + "]"
}
