package forensics

// Time-travel tests: loading a live-written audit journal back as a
// ReplayRun, the seek/step window API, and two-run diffing with
// null-propagating deltas.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// writeAuditJournal runs a collector over a synthetic stream and returns
// the journal path — the fixture both replay tests load.
func writeAuditJournal(t *testing.T, rounds, benign, malicious int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	c, err := NewCollector(Options{Defense: "stub", AuditPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		feedRound(c, r, benign, malicious)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadAuditJournal reads the journal at path back as a ReplayRun.
func loadAuditJournal(t *testing.T, path, name string) ReplayRun {
	t.Helper()
	entries, err := persist.ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err := AuditRun(entries, name)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestLoadAuditJournal(t *testing.T) {
	path := writeAuditJournal(t, 5, 3, 1)
	run := loadAuditJournal(t, path, "fixture")
	if run.Name != "fixture" || run.Source != "audit-journal" {
		t.Fatalf("run identity = %q/%q", run.Name, run.Source)
	}
	if len(run.Rounds) != 5 {
		t.Fatalf("loaded %d rounds, want 5", len(run.Rounds))
	}
	for i, rr := range run.Rounds {
		if rr.Audit.Round != i {
			t.Fatalf("round %d out of order: audit says %d", i, rr.Audit.Round)
		}
		if len(rr.Audit.Records) != 4 {
			t.Fatalf("round %d has %d records, want 4", i, len(rr.Audit.Records))
		}
		// Audit journals carry no accuracy timeline.
		if !math.IsNaN(float64(rr.Accuracy)) {
			t.Fatalf("round %d accuracy = %v, want NaN", i, rr.Accuracy)
		}
		// The metrics decode must restore ratios through the confusion, not
		// stored copies: the separable fixture filters every attacker.
		if got := rr.Audit.Metrics.TPR(); got != 1 {
			t.Fatalf("round %d replayed TPR = %v, want 1", i, got)
		}
	}
	if _, err := AuditRun([]persist.Entry{{Key: "r00000000.0000", Payload: []byte(`{"round":"x"}`)}}, "x"); err == nil {
		t.Fatal("an entry that is no audit should fail")
	}
}

func TestReplayRoundsSeekStep(t *testing.T) {
	path := writeAuditJournal(t, 10, 2, 1)
	run := loadAuditJournal(t, path, "seek")
	mux := http.NewServeMux()
	NewReplay([]ReplayRun{run}).Mount(mux, "/api/replay")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var runs []struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Rounds int    `json:"rounds"`
	}
	if code := get("/api/replay/runs", &runs); code != http.StatusOK {
		t.Fatalf("/runs status %d", code)
	}
	if len(runs) != 1 || runs[0].Name != "seek" || runs[0].Rounds != 10 {
		t.Fatalf("runs listing = %+v", runs)
	}

	var page struct {
		Run    string `json:"run"`
		Total  int    `json:"total"`
		From   int    `json:"from"`
		Rounds []struct {
			Audit RoundAudit `json:"audit"`
		} `json:"rounds"`
	}
	if code := get("/api/replay/rounds?run=seek&from=4&n=3", &page); code != http.StatusOK {
		t.Fatalf("/rounds status %d", code)
	}
	if page.Total != 10 || page.From != 4 || len(page.Rounds) != 3 {
		t.Fatalf("seek window = %+v", page)
	}
	if page.Rounds[0].Audit.Round != 4 || page.Rounds[2].Audit.Round != 6 {
		t.Fatalf("window rounds [%d, %d], want [4, 6]", page.Rounds[0].Audit.Round, page.Rounds[2].Audit.Round)
	}
	// Seeking past the end clamps to an empty window, never a panic or 500.
	if code := get("/api/replay/rounds?run=seek&from=99&n=5", &page); code != http.StatusOK {
		t.Fatalf("past-end status %d", code)
	}
	if len(page.Rounds) != 0 {
		t.Fatalf("past-end window returned %d rounds", len(page.Rounds))
	}
	// A window size near int's maximum clamps as well: from+n must not wrap
	// into a negative capacity.
	if code := get("/api/replay/rounds?run=seek&from=1&n=9223372036854775807", &page); code != http.StatusOK {
		t.Fatalf("huge-n status %d", code)
	}
	if page.From != 1 || len(page.Rounds) != 9 || page.Rounds[0].Audit.Round != 1 {
		t.Fatalf("huge-n window from %d with %d rounds, want from 1 with 9", page.From, len(page.Rounds))
	}
	if code := get("/api/replay/rounds?run=nope", &page); code != http.StatusNotFound {
		t.Fatalf("unknown run status %d, want 404", code)
	}
	if code := get("/api/replay/rounds?run=seek&from=-1", &page); code != http.StatusBadRequest {
		t.Fatalf("negative seek status %d, want 400", code)
	}
}

func TestReplayDiff(t *testing.T) {
	// Run A filters its attacker every round; run B has no attackers and a
	// shorter history, so the diff must align on min length and report the
	// overhang.
	pathA := writeAuditJournal(t, 6, 3, 1)
	pathB := writeAuditJournal(t, 4, 3, 0)
	runA, runB := loadAuditJournal(t, pathA, "a"), loadAuditJournal(t, pathB, "b")
	mux := http.NewServeMux()
	NewReplay([]ReplayRun{runA, runB}).Mount(mux, "/api/replay")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/replay/diff?a=a&b=b")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var diff struct {
		A       string `json:"a"`
		B       string `json:"b"`
		Aligned int    `json:"aligned"`
		AExtra  int    `json:"aExtra"`
		BExtra  int    `json:"bExtra"`
		Rounds  []struct {
			Index int      `json:"index"`
			A     diffSide `json:"a"`
			B     diffSide `json:"b"`
			Delta struct {
				TPR      *float64 `json:"tpr"`
				Accuracy *float64 `json:"accuracy"`
			} `json:"delta"`
		} `json:"rounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&diff); err != nil {
		t.Fatal(err)
	}
	if diff.Aligned != 4 || diff.AExtra != 2 || diff.BExtra != 0 {
		t.Fatalf("alignment = %d aligned, %d/%d extra, want 4, 2/0", diff.Aligned, diff.AExtra, diff.BExtra)
	}
	row := diff.Rounds[0]
	if row.A.TPR != 1 {
		t.Fatalf("run A round 0 TPR = %v, want 1", row.A.TPR)
	}
	// Run B saw no attackers, so its TPR is 0/0 — null — and the delta must
	// propagate the null rather than fabricate a number.
	if !math.IsNaN(float64(row.B.TPR)) {
		t.Fatalf("run B round 0 TPR = %v, want null", row.B.TPR)
	}
	if row.Delta.TPR != nil {
		t.Fatalf("TPR delta = %v, want null (one side unmeasured)", *row.Delta.TPR)
	}
	// Neither journal carries accuracy, so the accuracy delta is null too.
	if row.Delta.Accuracy != nil {
		t.Fatal("accuracy delta should be null for audit-journal sources")
	}
	if row.A.Accepted != 3 || row.A.Rejected != 1 {
		t.Fatalf("run A decisions = %d/%d, want 3 accepted 1 rejected", row.A.Accepted, row.A.Rejected)
	}

	resp2, err := http.Get(srv.URL + "/api/replay/diff?a=a&b=missing")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown diff side status %d, want 404", resp2.StatusCode)
	}
}

// TestFingerprintJSONRoundTrip pins the fingerprint's JSON: finite
// fingerprints render as plain float64 fields would, and NaN components
// become nulls that decode back to NaN.
func TestFingerprintJSONRoundTrip(t *testing.T) {
	fin := Fingerprint{L2: 1.5, CosMean: -0.25, MinNeighbor: 0.125, MedNeighbor: 2}
	b, err := json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"l2":1.5,"cosMean":-0.25,"minNeighbor":0.125,"medNeighbor":2}`
	if string(b) != want {
		t.Fatalf("finite fingerprint encodes as %s, want %s", b, want)
	}
	var back Fingerprint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != fin {
		t.Fatalf("round trip drifted: %+v vs %+v", back, fin)
	}

	nan := Fingerprint{L2: 3, CosMean: persist.Float(math.NaN()), MinNeighbor: persist.Float(math.Inf(1)), MedNeighbor: persist.Float(math.NaN())}
	b, err = json.Marshal(nan)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"l2":3,"cosMean":null,"minNeighbor":null,"medNeighbor":null}` {
		t.Fatalf("NaN fingerprint encodes as %s", b)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.L2 != 3 || !math.IsNaN(float64(back.CosMean)) || !math.IsNaN(float64(back.MinNeighbor)) || !math.IsNaN(float64(back.MedNeighbor)) {
		t.Fatalf("NaN round trip = %+v", back)
	}
}

// TestGoldenAuditJournal: audit lines written by an earlier build (scored
// and unscored rules, a second aggregation in a round, null rates and an
// empty round) decode as RoundAudits and journal back to identical bytes.
func TestGoldenAuditJournal(t *testing.T) {
	const golden = "testdata/golden_audit.jsonl"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := persist.ReadEntries(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "re.jsonl")
	j, err := persist.OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	unscored := 0
	for _, e := range entries {
		var ra RoundAudit
		if err := json.Unmarshal(e.Payload, &ra); err != nil {
			t.Fatal(err)
		}
		if len(ra.Records) > 0 && ra.Records[0].Score == nil {
			unscored++
		}
		if err := j.Append(e.Key, ra); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if unscored == 0 {
		t.Fatal("golden journal holds no line of an unscored rule")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-journaled audits differ:\n got %s\nwant %s", got, want)
	}
}
