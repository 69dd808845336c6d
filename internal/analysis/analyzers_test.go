package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "fl")
}

func TestPoolEscape(t *testing.T) {
	// The arena package itself is exempt (no want comments in tensor);
	// loading it alongside the client asserts that exemption holds.
	analysistest.Run(t, "testdata", analysis.PoolEscape, "tensor", "poolclient")
}

func TestNaNJSON(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NaNJSON, "report")
}

func TestTelemetryClock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TelemetryClock, "flnet")
}

func TestZeroDep(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ZeroDep, "dashboard")
}

// TestDeadExport runs the whole-module check over a fixture module with a
// second module that replaces it: only the export nothing but a test uses
// is flagged.
func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "testdata/deadexport", analysis.DeadExport, "./...")
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
	}
	subset, err := analysis.ByName("zerodep, nanjson")
	if err != nil || len(subset) != 2 || subset[0].Name != "zerodep" || subset[1].Name != "nanjson" {
		t.Fatalf("ByName(\"zerodep, nanjson\") = %v, err %v", subset, err)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") succeeded; want error")
	}
}
