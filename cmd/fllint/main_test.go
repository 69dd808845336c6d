package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFllint compiles the fllint binary into a scratch dir once per test.
func buildFllint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fllint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/fllint: %v\n%s", err, out)
	}
	return bin
}

// TestVetToolProbe checks the -V=full handshake the go vet driver uses to
// identify a vettool: "name version stamp" on one line.
func TestVetToolProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the fllint binary")
	}
	bin := buildFllint(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("fllint -V=full: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) != 3 || fields[1] != "version" {
		t.Fatalf("fllint -V=full = %q; want \"<name> version <stamp>\"", out)
	}
}

// TestVetToolMode runs fllint under the real go vet driver — the .cfg
// protocol, export-data import resolution, vetx output files — against
// the packages whose invariants it checks, and expects a clean pass.
func TestVetToolMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fllint and runs go vet over real packages")
	}
	bin := buildFllint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"../../internal/experiment", "../../internal/report", "../../internal/forensics")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet -vettool=fllint: %v\n%s", err, out.String())
	}
}

// TestStandaloneClean runs the standalone loader path over the same
// packages and expects exit 0 — the same contract CI enforces repo-wide.
func TestStandaloneClean(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the fllint binary")
	}
	bin := buildFllint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fllint ./...: %v\n%s", err, out)
	}
}

// TestDeadExportPartialPattern runs the whole-module check on one package:
// the rest of the module still counts as its users, so the exports other
// packages call are not flagged.
func TestDeadExportPartialPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the fllint binary over the module")
	}
	bin := buildFllint(t)
	cmd := exec.Command(bin, "-checks", "deadexport", "./internal/fl")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fllint -checks deadexport ./internal/fl: %v\n%s", err, out)
	}
}
