package forensics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// feedRound pushes one synthetic aggregation into c: benign updates score
// high, malicious low, and the defense accepts exactly the benign ones.
func feedRound(c *Collector, round, benign, malicious int) {
	var updates []fl.Update
	var scores []float64
	var accepted []int
	for i := 0; i < benign; i++ {
		updates = append(updates, fl.Update{ClientID: i, Weights: []float64{1, float64(i)}, NumSamples: 1})
		scores = append(scores, 10+float64(i))
		accepted = append(accepted, i)
	}
	for i := 0; i < malicious; i++ {
		updates = append(updates, fl.Update{ClientID: 1000 + i, Weights: []float64{-5, 0}, NumSamples: 1, Malicious: true})
		scores = append(scores, float64(i))
	}
	c.ObserveAggregation(round, []float64{0, 0}, updates, fl.Selection{
		Accepted: accepted, Scores: scores, ScoreName: "test-score",
	})
}

func TestCollectorStreamsConfusionAndAUC(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		feedRound(c, r, 4, 2)
	}
	s := c.Summary()
	if s.Aggregations != 5 || s.DecisionRounds != 5 {
		t.Fatalf("rounds = %d/%d, want 5/5", s.Aggregations, s.DecisionRounds)
	}
	if s.Confusion.TP != 10 || s.Confusion.TN != 20 || s.Confusion.FP != 0 || s.Confusion.FN != 0 {
		t.Fatalf("confusion = %+v", s.Confusion)
	}
	if s.TPR != 1 || s.FPR != 0 {
		t.Fatalf("TPR/FPR = %v/%v, want 1/0", s.TPR, s.FPR)
	}
	if s.AUC != 1 || s.TPRAt1FPR != 1 {
		t.Fatalf("AUC = %v TPR@1%%FPR = %v, want 1/1 for separable scores", s.AUC, s.TPRAt1FPR)
	}
	if s.ScorePairs != 30 || s.ReservoirLen != 30 {
		t.Fatalf("pairs = %d reservoir = %d, want 30/30", s.ScorePairs, s.ReservoirLen)
	}
	if s.MaliciousSeen != 10 || s.Updates != 30 {
		t.Fatalf("updates = %d malicious = %d", s.Updates, s.MaliciousSeen)
	}
}

// TestCollectorZeroSelectionRounds is the all-filtered / zero-responder
// regression: both degenerate round shapes must be recorded as
// zero-selection rounds with NaN-guarded rates — never skipped, never a
// division by zero.
func TestCollectorZeroSelectionRounds(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	// Zero responders: the engine reports an empty round with a zero
	// Selection — the defense never ran, so no decision is claimed.
	c.ObserveAggregation(0, []float64{0}, nil, fl.Selection{})
	// All filtered: updates exist, none accepted.
	us := mkUpdates([]bool{true, false}, []float64{1}, []float64{2})
	c.ObserveAggregation(1, []float64{0}, us, fl.Selection{Accepted: []int{}})
	s := c.Summary()
	if s.ZeroSelectionRounds != 2 {
		t.Fatalf("zero-selection rounds = %d, want 2", s.ZeroSelectionRounds)
	}
	if s.Aggregations != 2 || s.DecisionRounds != 1 {
		t.Fatalf("aggregations = %d decisions = %d, want 2/1 (no decision on the zero-responder round)", s.Aggregations, s.DecisionRounds)
	}
	if s.Confusion.TP != 1 || s.Confusion.FP != 1 {
		t.Fatalf("all-filtered confusion = %+v, want TP=1 FP=1", s.Confusion)
	}
	// TPR = 1/1 (the attacker was filtered), FPR = 1/1 (so was the benign).
	if s.TPR != 1 || s.FPR != 1 {
		t.Fatalf("rates = %v/%v, want 1/1", s.TPR, s.FPR)
	}
	rounds := c.Rounds()
	if len(rounds) != 2 || !rounds[0].ZeroSelection || !rounds[1].ZeroSelection {
		t.Fatalf("ring should mark both rounds zero-selection: %+v", rounds)
	}
}

func TestCollectorUnknownSelection(t *testing.T) {
	c, err := NewCollector(Options{Defense: "trmean"})
	if err != nil {
		t.Fatal(err)
	}
	us := mkUpdates([]bool{true, false}, []float64{1}, []float64{2})
	c.ObserveAggregation(0, []float64{0}, us, fl.Selection{})
	s := c.Summary()
	if s.Aggregations != 1 || s.DecisionRounds != 0 {
		t.Fatalf("non-selecting defense: aggregations %d decisions %d, want 1/0", s.Aggregations, s.DecisionRounds)
	}
	if (s.Confusion != Confusion{}) {
		t.Fatalf("confusion should stay empty, got %+v", s.Confusion)
	}
	if !math.IsNaN(float64(s.TPR)) || !math.IsNaN(float64(s.AUC)) {
		t.Fatalf("undecided metrics should be NaN, got TPR=%v AUC=%v", s.TPR, s.AUC)
	}
}

// TestCollectorBoundedMemory pins the production heap contract: the ring
// and the reservoir never exceed their caps, no matter how many rounds or
// score pairs stream through — the property that keeps a 100k-client
// detection sweep inside the lazy population's heap bounds.
func TestCollectorBoundedMemory(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub", Ring: 8, ReservoirCap: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 500; r++ {
		feedRound(c, r, 6, 2)
	}
	if len(c.Rounds()) != 8 {
		t.Fatalf("ring grew to %d, cap 8", len(c.Rounds()))
	}
	s := c.Summary()
	if s.ReservoirLen != 64 {
		t.Fatalf("reservoir grew to %d, cap 64", s.ReservoirLen)
	}
	if s.ScorePairs != 500*8 {
		t.Fatalf("pairs seen = %d, want 4000", s.ScorePairs)
	}
	// The ring holds the newest rounds.
	rounds := c.Rounds()
	if rounds[0].Round != 492 || rounds[7].Round != 499 {
		t.Fatalf("ring window [%d, %d], want [492, 499]", rounds[0].Round, rounds[7].Round)
	}
	// The reservoir still separates the classes perfectly.
	if s.AUC != 1 {
		t.Fatalf("reservoir AUC = %v, want 1", s.AUC)
	}
}

// TestCollectorDeterministicReservoir: identical streams with identical
// seeds keep bit-identical reservoirs (and therefore metrics); a different
// seed may sample differently but stays within bounds.
func TestCollectorDeterministicReservoir(t *testing.T) {
	mk := func(seed int64) Summary {
		c, err := NewCollector(Options{Defense: "stub", ReservoirCap: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 100; r++ {
			feedRound(c, r, 5, 1)
		}
		return c.Summary()
	}
	a, b := mk(11), mk(11)
	if a != b {
		t.Fatalf("same seed produced different summaries:\n%+v\n%+v", a, b)
	}
}

func TestCollectorAsyncSeq(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 3, 2, 0)
	feedRound(c, 3, 2, 0) // second buffer flush in the same engine step
	rounds := c.Rounds()
	if rounds[0].Seq != 0 || rounds[1].Seq != 1 {
		t.Fatalf("async flush sequence = %d, %d, want 0, 1", rounds[0].Seq, rounds[1].Seq)
	}
}

func TestCollectorAuditJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	c, err := NewCollector(Options{Defense: "stub", AuditPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		feedRound(c, r, 3, 1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := persist.ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("journal has %d entries, want 3", len(entries))
	}
	var entry RoundAudit
	if e := entries[1]; e.Key != "r00000001.0000" || json.Unmarshal(e.Payload, &entry) != nil {
		t.Fatalf("round 1 audit missing: entry 1 is %s", e.Key)
	}
	if entry.Round != 1 || len(entry.Records) != 4 {
		t.Fatalf("journaled audit = round %d with %d records", entry.Round, len(entry.Records))
	}
	mal := 0
	for _, rec := range entry.Records {
		if rec.Malicious {
			mal++
			if rec.Accepted {
				t.Fatal("journal shows the rejected attacker as accepted")
			}
		}
		if rec.Score == nil {
			t.Fatal("scored defense should journal per-update scores")
		}
	}
	if mal != 1 {
		t.Fatalf("journaled %d malicious records, want 1", mal)
	}
	if entry.Metrics.TPR() != 1 {
		t.Fatalf("journaled round TPR = %v, want 1", entry.Metrics.TPR())
	}
}

// mounted serves the collector the way the ops plane does: on a mux, under
// /forensics (the collector has no listener of its own).
func mounted(c *Collector) http.Handler {
	mux := http.NewServeMux()
	c.Mount(mux, "/forensics")
	return mux
}

func TestHTTPEndpoints(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		feedRound(c, r, 4, 1)
	}
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
	}

	var metrics struct {
		Cumulative Summary       `json:"cumulative"`
		Current    *RoundMetrics `json:"current"`
	}
	get("/forensics/metrics", &metrics)
	if metrics.Cumulative.Aggregations != 4 {
		t.Fatalf("cumulative aggregations = %d, want 4", metrics.Cumulative.Aggregations)
	}
	if metrics.Cumulative.AUC != 1 {
		t.Fatalf("cumulative AUC = %v, want 1", metrics.Cumulative.AUC)
	}
	if metrics.Current == nil || metrics.Current.Round != 3 {
		t.Fatalf("current round = %+v, want round 3", metrics.Current)
	}

	var rounds roundsPage
	get("/forensics/rounds", &rounds)
	if rounds.Cursor != 4 || len(rounds.Rounds) != 4 || len(rounds.Rounds[0].Audit.Records) != 5 {
		t.Fatalf("rounds endpoint returned cursor %d with %d rounds", rounds.Cursor, len(rounds.Rounds))
	}

	// The top-level spellings are gone, not redirected: /metrics belongs to
	// the ops plane's Prometheus text.
	for _, path := range []string{"/metrics", "/rounds"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServeEphemeral(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 0, 2, 1)
	addr, shutdown, err := telemetry.ServeOps("127.0.0.1:0", mounted(c))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/forensics/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
