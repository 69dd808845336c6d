package main

// The binaries ≡ simulator oracle: flserver's run and K flclient processes,
// all handed one argument list, must end where flsim ends for the Config
// those flags name.

import (
	"flag"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/forensics"
	"repro/internal/persist"
)

// TestBinariesAreTheSimulator runs each cell twice from one argument list:
// as flsim (experiment.Run of the Config the flags name, audited), and as
// flserver's run with one flclient process per client. Each client plays
// its server-assigned ID by the simulator's recipe, so the final-weight
// digest (the server's, and every client's copy), the per-round accuracy
// and the per-round accepted client IDs — and with them the DPR — must be
// equal. Every draw of round r comes from (seed, r) and each update sits at
// its selection slot on both sides, so the cells are exact whether or not
// every attacker is selected each round and whatever order the rule sums
// in; README ("Binaries ≡ simulator") names the one shape that is not. The
// binaries are built without the race detector, so under -race only
// flserver's run is instrumented.
func TestBinariesAreTheSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("builds flsim and flclient and runs federations of their processes")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"flsim", "flclient"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "repro/cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
	}
	for _, cell := range []struct {
		name string
		args []string
	}{
		{"dfa-r-mkrum", []string{"-dataset", "fashion-sim", "-attack", "dfa-r", "-defense", "mkrum",
			"-clients", "10", "-per-round", "10", "-frac", "0.2", "-rounds", "3", "-samples", "10", "-eval-limit", "200"}},
		{"clean-n20-k10", []string{"-dataset", "fashion-sim", "-attack", "none", "-defense", "mkrum",
			"-clients", "20", "-per-round", "10", "-rounds", "3", "-eval-limit", "200"}},
		{"dfa-r-fedavg", []string{"-dataset", "fashion-sim", "-attack", "dfa-r", "-defense", "fedavg",
			"-clients", "10", "-per-round", "10", "-frac", "0.2", "-rounds", "3", "-samples", "10", "-eval-limit", "200"}},
		{"dfa-r-mkrum-n20-k10", []string{"-dataset", "fashion-sim", "-attack", "dfa-r", "-defense", "mkrum",
			"-clients", "20", "-per-round", "10", "-frac", "0.2", "-rounds", "3", "-samples", "10", "-eval-limit", "200"}},
	} {
		t.Run(cell.name, func(t *testing.T) {
			simAudit := filepath.Join(t.TempDir(), "sim-audit.jsonl")
			out, err := exec.Command(filepath.Join(dir, "flsim"), append([]string{"-audit", simAudit}, cell.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("flsim: %v\n%s", err, out)
			}
			sim := string(out)
			server, serverAudit, clients := serve(t, filepath.Join(dir, "flclient"), cell.args)

			digest := regexp.MustCompile(` DPR=(\S+) digest=([0-9a-f]{16}) `).FindStringSubmatch(sim)
			if digest == nil {
				t.Fatalf("flsim printed no digest:\n%s", sim)
			}
			if !strings.Contains(server, " digest "+digest[2]+"\n") {
				t.Errorf("flsim's digest %s; flserver:\n%s", digest[2], server)
			}
			for i, out := range clients {
				if !strings.Contains(out, "digest "+digest[2]+"\n") {
					t.Errorf("flclient %d did not receive flsim's model %s:\n%s", i, digest[2], out)
				}
			}
			accuracy := regexp.MustCompile(`(?m)^round +\d+ .*accuracy (\S+)$`)
			if got, want := accuracy.FindAllStringSubmatch(server, -1), accuracy.FindAllStringSubmatch(sim, -1); len(want) != 3 || !reflect.DeepEqual(column(got), column(want)) {
				t.Errorf("per-round accuracy: flserver %v, flsim %v", column(got), column(want))
			}
			simRun := loadAudit(t, simAudit)
			if len(simRun.Rounds) != 3 {
				t.Fatalf("flsim audited %d of 3 rounds", len(simRun.Rounds))
			}
			if got, want := accepted(serverAudit), accepted(simRun); !reflect.DeepEqual(got, want) {
				t.Errorf("per-round accepted clients: flserver %v, flsim %v", got, want)
			}
			if got := dpr(serverAudit, simRun); got != digest[1] {
				t.Errorf("DPR over the flserver audit %s, flsim %s", got, digest[1])
			}
		})
	}
}

// column is the first group of each match.
func column(matches [][]string) []string {
	var col []string
	for _, m := range matches {
		col = append(col, m[1])
	}
	return col
}

// serve runs flserver's run on args with one flclient process per client
// and returns the server's stdout, its decision audit and each client's
// stdout.
func serve(t *testing.T, client string, args []string) (string, forensics.ReplayRun, []string) {
	t.Helper()
	fs := flag.NewFlagSet("flsim", flag.ContinueOnError)
	var cfg experiment.Config
	cfg.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "server-audit.jsonl")
	var stdout lineLog
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0", "-audit", path, "-timeout", "120s", "-accept-timeout", "60s"}, args...), &stdout)
	}()
	addr := stdout.waitFor(t, `listening on (\S+),`)
	outs := make([]string, cfg.TotalClients)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := exec.Command(client, append([]string{"-addr", addr, "-timeout", "120s"}, args...)...).CombinedOutput()
			if outs[i] = string(out); err != nil {
				t.Errorf("flclient %d: %v\n%s", i, err, out)
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("flserver: %v\n%s", err, stdout.String())
	}
	return stdout.String(), loadAudit(t, path), outs
}

func loadAudit(t *testing.T, path string) forensics.ReplayRun {
	t.Helper()
	entries, err := persist.ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := forensics.AuditRun(entries, filepath.Base(path))
	if err != nil {
		t.Fatal(err)
	}
	return audit
}

// accepted lists each round's accepted client IDs, in ID order.
func accepted(audit forensics.ReplayRun) [][]int {
	var rounds [][]int
	for _, rr := range audit.Rounds {
		ids := []int{}
		for _, rec := range rr.Audit.Records {
			if rec.Accepted {
				ids = append(ids, rec.ClientID)
			}
		}
		slices.Sort(ids)
		rounds = append(rounds, ids)
	}
	return rounds
}

// dpr is Eq. 5 over the server's decisions as flsim prints it: the share of
// submitted attacker updates the server accepted, where the attackers are
// the clients the simulator's audit marks malicious (the server knows no
// roles); N/A when no attacker update ever met a rule that selects.
func dpr(server, sim forensics.ReplayRun) string {
	malicious := map[int]bool{}
	for _, rr := range sim.Rounds {
		for _, rec := range rr.Audit.Records {
			if rec.Malicious {
				malicious[rec.ClientID] = true
			}
		}
	}
	submitted, passed := 0, 0
	for _, rr := range server.Rounds {
		for _, rec := range rr.Audit.Records {
			if malicious[rec.ClientID] && rec.Decided {
				submitted++
				if rec.Accepted {
					passed++
				}
			}
		}
	}
	if submitted == 0 {
		return "N/A"
	}
	return fmt.Sprintf("%.2f%%", float64(passed)/float64(submitted)*100)
}
