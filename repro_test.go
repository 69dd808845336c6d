package repro_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestRunExperimentOptsOpensStoreAndPlaneOnce pins what `flbench -exp all`
// relies on: one call takes the whole id list, so the ops endpoint is bound
// (and its dashboard hint printed) once, and the run store stays open
// across experiments — the second artifact here resumes every cell the
// first one journaled a moment earlier.
func TestRunExperimentOptsOpensStoreAndPlaneOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the samplesize grid")
	}
	bound := 0
	var resumed, executed int
	opts := repro.RunOptions{
		StorePath: filepath.Join(t.TempDir(), "run.jsonl"),
		Resume:    true,
		Watch:     repro.Watch{Dash: true, OnBound: func(string) { bound++ }},
		Progress: func(ev repro.ProgressEvent) {
			if ev.Skipped {
				resumed++
			} else {
				executed++
			}
		},
	}
	var out strings.Builder
	if err := repro.RunExperimentOpts([]string{"samplesize", "samplesize"}, opts, &out); err != nil {
		t.Fatal(err)
	}
	if bound != 1 {
		t.Fatalf("ops endpoint bound %d times over two experiments, want once", bound)
	}
	if executed == 0 || resumed != executed {
		t.Fatalf("second experiment resumed %d cells of the %d the first executed", resumed, executed)
	}
	if n := strings.Count(out.String(), "## samplesize done in "); n != 2 {
		t.Fatalf("output has %d completion lines, want 2:\n%s", n, out.String())
	}
	if err := repro.RunExperimentOpts([]string{"samplesize", "no-such-artifact"}, opts, &out); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") || bound != 1 {
		t.Fatalf("an unknown id must fail before anything opens: err %v, bound %d", err, bound)
	}
}
