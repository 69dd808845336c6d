package report

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/experiment"
)

func TestDashboardHint(t *testing.T) {
	for _, tc := range []struct{ bound, want string }{
		{":9090", "dashboard: http://localhost:9090/dash/\n"},
		{"0.0.0.0:9090", "dashboard: http://localhost:9090/dash/\n"},
		{"[::]:9090", "dashboard: http://localhost:9090/dash/\n"},
		{"127.0.0.1:41234", "dashboard: http://127.0.0.1:41234/dash/\n"},
		{"ops.example:9090", "dashboard: http://ops.example:9090/dash/\n"},
	} {
		var buf bytes.Buffer
		DashboardHint(&buf, tc.bound)
		if got := buf.String(); got != tc.want {
			t.Errorf("DashboardHint(%q) = %q, want %q", tc.bound, got, tc.want)
		}
	}
}

func TestProgress(t *testing.T) {
	cfg := experiment.Config{Dataset: "fashion-sim", Attack: "dfa-r", Defense: "mkrum", Beta: 0.5, Seed: 1}
	for _, tc := range []struct {
		name string
		ev   experiment.ProgressEvent
		want string
	}{
		{"executed", experiment.ProgressEvent{Done: 1, Total: 4, Elapsed: 1500 * time.Millisecond},
			"[1/4] fashion-sim/dfa-r/mkrum beta=0.5 elapsed 1.5s\n"},
		{"failed", experiment.ProgressEvent{Done: 2, Total: 4, Err: errors.New("boom")},
			"[2/4] fashion-sim/dfa-r/mkrum beta=0.5 FAILED: boom elapsed 0s\n"},
		{"remote", experiment.ProgressEvent{Done: 3, Total: 4, Remote: true},
			"[3/4] fashion-sim/dfa-r/mkrum beta=0.5 (completed by another worker) elapsed 0s\n"},
		{"skipped", experiment.ProgressEvent{Done: 4, Total: 4, Skipped: true},
			"[4/4] fashion-sim/dfa-r/mkrum beta=0.5 (resumed from store) elapsed 0s\n"},
		{"eta", experiment.ProgressEvent{Done: 1, Total: 4, Elapsed: time.Second, ETA: 3400 * time.Millisecond},
			"[1/4] fashion-sim/dfa-r/mkrum beta=0.5 elapsed 1s eta 3s\n"},
		{"fleet", experiment.ProgressEvent{Done: 2, Total: 4, WorkerCells: 2, CellsPerMin: 12.34},
			"[2/4] fashion-sim/dfa-r/mkrum beta=0.5 elapsed 0s worker 2 cells 12.3/min\n"},
		{"conflicts", experiment.ProgressEvent{Done: 2, Total: 4, WorkerCells: 1, CellsPerMin: 6, LeaseConflicts: 3},
			"[2/4] fashion-sim/dfa-r/mkrum beta=0.5 elapsed 0s worker 1 cells 6.0/min conflicts 3\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tc.ev.Config = cfg
			Progress(&buf)(tc.ev)
			if got := buf.String(); got != tc.want {
				t.Errorf("got  %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestCellLabelCodecAxes checks that the compression grid's four codec
// variants of one cell print four distinct progress labels.
func TestCellLabelCodecAxes(t *testing.T) {
	base := experiment.Config{Dataset: "fashion-sim", Attack: "dfa-r", Defense: "mkrum", Beta: 0.5, Seed: 1}
	variants := []func(*experiment.Config){
		func(*experiment.Config) {},
		func(c *experiment.Config) { c.Codec = "fp16" },
		func(c *experiment.Config) { c.Codec = "int8" },
		func(c *experiment.Config) { c.Codec = "int8"; c.TopK = 0.1; c.ErrorFeedback = true },
	}
	seen := map[string]bool{}
	for _, mut := range variants {
		c := base
		mut(&c)
		label := cellLabel(c)
		if seen[label] {
			t.Fatalf("label %q repeats across codec variants", label)
		}
		seen[label] = true
	}
	if !seen["fashion-sim/dfa-r/mkrum beta=0.5 codec=int8,topk=0.1,ef"] {
		t.Errorf("labels %v lack the top-k+EF variant's codec suffix", seen)
	}
}
