package main

// End-to-end tests of the flserver binary's two paths — single-tenant and
// -federations — with real flnet clients over loopback and the whole ops
// plane on: they read the addresses run prints, hold the last round open
// while they scrape the live endpoints, and check that nothing is left
// running after run returns.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/experiment"
	"repro/internal/flnet"
)

const (
	testClients = 5
	testRounds  = 2
	testSeed    = 6
)

// lineLog is run's stdout: safe for the concurrent writers of a host and
// for the test reading while run writes.
type lineLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFor polls until re matches the output and returns its first group.
func (l *lineLog) waitFor(t *testing.T, re string) string {
	t.Helper()
	pat := regexp.MustCompile(re)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if m := pat.FindStringSubmatch(l.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("flserver never printed %q; output so far:\n%s", re, l.String())
	return ""
}

// gatedTrainer is a client's recipe trainer, filled in once the join has
// assigned its ID. A gated one announces it has been asked for the last
// round — so every earlier round is aggregated, audited and counted — and
// then holds that round open until the test lets go.
type gatedTrainer struct {
	flnet.Trainer
	gate    bool
	reached chan<- struct{}
	release <-chan struct{}
}

func (g *gatedTrainer) Train(round int, global, prev []float64) ([]float64, int, error) {
	if g.gate && round == testRounds-1 {
		g.reached <- struct{}{}
		<-g.release
	}
	return g.Trainer.Train(round, global, prev)
}

// scrape fetches one ops-endpoint path on a connection of its own, so no
// idle keep-alive outlives the test's goroutine count.
func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// serveAndCheck runs flserver with the given extra flags, joins testClients
// loopback clients to each federation ("" = the single-tenant server), and
// asserts the ops plane while the last round is held open.
func serveAndCheck(t *testing.T, federations []string, extra ...string) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	audit, trace := filepath.Join(dir, "audit.jsonl"), filepath.Join(dir, "trace.json")
	args := append([]string{
		"-addr", "127.0.0.1:0", "-dataset", "tiny-sim", "-attack", "none",
		"-clients", strconv.Itoa(testClients), "-per-round", strconv.Itoa(testClients),
		"-rounds", strconv.Itoa(testRounds), "-seed", strconv.Itoa(testSeed),
		"-timeout", "20s", "-accept-timeout", "20s",
		"-ops-addr", "127.0.0.1:0", "-dash", "-audit", audit, "-trace", trace,
	}, extra...)
	var stdout lineLog
	done := make(chan error, 1)
	go func() { done <- run(args, &stdout) }()
	opsAddr := stdout.waitFor(t, `ops endpoint at http://(\S+)/metrics`)
	flAddr := stdout.waitFor(t, `(?:listening|federations) on (\S+),`)
	if !strings.Contains(stdout.String(), "dashboard: http://"+opsAddr+"/dash/") {
		t.Errorf("-dash printed no dashboard hint for %s:\n%s", opsAddr, stdout.String())
	}

	recipe, err := experiment.NewRecipe(experiment.Config{Dataset: "tiny-sim", Attack: "none",
		TotalClients: testClients, PerRound: testClients, Rounds: testRounds, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{}, len(federations))
	release := make(chan struct{})
	var clients sync.WaitGroup
	clientErrs := make(chan error, len(federations)*testClients)
	for _, fed := range federations {
		for i := 0; i < testClients; i++ {
			// The first client of each federation holds its last round open.
			trainer := &gatedTrainer{reached: reached, release: release, gate: i == 0}
			clients.Add(1)
			go func() {
				defer clients.Done()
				c, err := flnet.DialFederation(flAddr, fed, trainer, 20*time.Second, codec.Spec{})
				if err == nil {
					trainer.Trainer, _, err = recipe.Client(c.ID)
				}
				if err == nil {
					_, err = c.Run()
				}
				if err != nil {
					clientErrs <- fmt.Errorf("client of %q: %w", fed, err)
				}
			}()
		}
	}
	for range federations {
		select {
		case <-reached:
		case err := <-done:
			t.Fatalf("flserver returned before its last round: %v\n%s", err, stdout.String())
		case <-time.After(30 * time.Second):
			t.Fatalf("last round never started:\n%s", stdout.String())
		}
	}

	// Every federation has aggregated testRounds-1 rounds and is parked in
	// its last one: the plane is live and has something to show.
	_, metrics := scrape(t, opsAddr, "/metrics")
	for _, fed := range federations {
		joins := fmt.Sprintf("flnet_joins_total %d", testClients)
		prefix := "/forensics"
		if fed != "" {
			joins = fmt.Sprintf(`flnet_joins_total{federation=%q} %d`, fed, testClients)
			prefix += "/" + fed
		}
		if !strings.Contains(metrics, joins) {
			t.Errorf("/metrics lacks %q", joins)
		}
		status, rounds := scrape(t, opsAddr, prefix+"/rounds")
		if status != http.StatusOK || !strings.Contains(rounds, `"round":0`) {
			t.Errorf("GET %s/rounds = %d %.200s, want the audited first round", prefix, status, rounds)
		}
	}
	// Each federation's engine reports the pairwise-distance matrix its
	// Krum-family defense spends the round in: unlabelled on the
	// single-tenant server, under the tenant's label on a host (whose
	// alpha runs mkrum and beta fedavg, which computes no matrix).
	if federations[0] == "" {
		m := regexp.MustCompile(`(?m)^defense_distance_seconds_count (\d+)$`).FindStringSubmatch(metrics)
		if m == nil || m[1] == "0" {
			t.Errorf("defense_distance_seconds_count missing or zero on a mkrum server's /metrics:\n%s", metrics)
		}
	} else {
		m := regexp.MustCompile(`(?m)^defense_distance_seconds_count\{federation="alpha"\} (\d+)$`).FindStringSubmatch(metrics)
		if m == nil || m[1] == "0" || !strings.Contains(metrics, `defense_distance_seconds_count{federation="beta"} 0`+"\n") {
			t.Errorf("want alpha's (mkrum) distance series non-zero and beta's (fedavg) zero on a host's /metrics:\n%s", metrics)
		}
	}
	for path, want := range map[string]int{
		"/dash/":  http.StatusOK,
		"/rounds": http.StatusNotFound, // the legacy redirect is gone
	} {
		if status, _ := scrape(t, opsAddr, path); status != want {
			t.Errorf("GET %s = %d, want %d", path, status, want)
		}
	}

	close(release)
	clients.Wait()
	close(clientErrs)
	for err := range clientErrs {
		t.Error(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("flserver: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	for _, fed := range federations {
		prefix, suffix := "", ""
		if fed != "" {
			prefix, suffix = fed+"  ", "-"+fed
		}
		for _, line := range []string{
			fmt.Sprintf("%sround %3d  selected %d  responded %d", prefix, testRounds, testClients, testClients),
			prefix + "final accuracy ",
		} {
			if !strings.Contains(out, "\n"+line) {
				t.Errorf("stdout lacks the result line %q:\n%s", line, out)
			}
		}
		if !regexp.MustCompile(`\n` + prefix + `final accuracy \S+ \(max \S+\) digest [0-9a-f]{16}\n`).MatchString(out) {
			t.Errorf("stdout lacks %sfinal accuracy … digest <16 hex>:\n%s", prefix, out)
		}
		if fi, err := os.Stat(audit + suffix); err != nil || fi.Size() == 0 {
			t.Errorf("audit journal %s missing or empty: %v", audit+suffix, err)
		}
	}

	// -trace wrote every federation's round spans on exit.
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("-trace: %v", err)
	}
	var events []struct{ Name, Ph string }
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("-trace %s is no Chrome trace: %v", trace, err)
	}
	rounds := 0
	for _, ev := range events {
		if ev.Name == "round" && ev.Ph == "X" {
			rounds++
		}
	}
	if want := testRounds * len(federations); rounds != want {
		t.Errorf("-trace holds %d round spans, want %d", rounds, want)
	}

	// run has returned: listener, accept loop, federations, ops server and
	// its handlers must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before run, %d after it returned:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestRunSingleTenant(t *testing.T) {
	serveAndCheck(t, []string{""}, "-defense", "mkrum")
}

func TestRunMultiTenant(t *testing.T) {
	serveAndCheck(t, []string{"alpha", "beta"}, "-federations", "alpha=mkrum,beta=fedavg")
}

// TestRunRejectsBadWatch: the watch rules are the plane's, reached before
// any dataset is generated or port bound.
func TestRunRejectsBadWatch(t *testing.T) {
	err := run([]string{"-dash-replay", "x.jsonl"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-dash-replay requires -dash") {
		t.Fatalf("run error = %v, want the -dash-replay rule", err)
	}
}

// TestRunRejectsBadREFD: a REFD the flags cannot build is an error before
// any port is bound, not a server that starts with no defense. tiny-sim's
// test split holds fewer samples of some class than the 20 per class the
// reference set needs.
func TestRunRejectsBadREFD(t *testing.T) {
	err := run([]string{"-addr", "127.0.0.1:0", "-dataset", "tiny-sim", "-defense", "refd", "-accept-timeout", "1s"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "want 20") {
		t.Fatalf("run error = %v, want the REFD reference-set error", err)
	}
}

// TestRunRejectsNonFiniteFlags: a NaN or infinite float flag is refused by
// the config's normalization, which names the field, before the server
// binds its port: the address handed in is already taken, so reaching the
// bind would fail with another error.
func TestRunRejectsNonFiniteFlags(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, c := range []struct {
		flags []string
		field string
	}{
		{[]string{"-server-opt", "lr", "-server-lr", "NaN"}, "ServerLR"},
		{[]string{"-server-opt", "fedavgm", "-server-momentum", "+Inf"}, "ServerMomentum"},
		{[]string{"-dropout", "NaN"}, "DropoutProb"},
		{[]string{"-straggler", "-Inf"}, "StragglerProb"},
		{[]string{"-sampler", "bernoulli", "-sample-rate", "NaN"}, "SampleRate"},
	} {
		args := append([]string{"-addr", held.Addr().String(), "-dataset", "tiny-sim", "-accept-timeout", "1s"}, c.flags...)
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("run %v: error %v, want one naming %s", c.flags, err, c.field)
		}
	}
}
