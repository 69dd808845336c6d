package main

// Tests of the flclient binary: real clients driven through run against an
// in-process server over loopback, the roles it refuses before dialing, and
// the simulator Config a role plays.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/fl"
	"repro/internal/flnet"
)

const testSeed = 6

// syncBuffer is a run's stdout, written by the client while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// gatedAggregator parks the server's first aggregation until released: every
// client has trained round 0 and waits for round 1, so its ops endpoint has
// something to show.
type gatedAggregator struct {
	fl.Aggregator
	once    sync.Once
	reached chan<- struct{}
	release <-chan struct{}
}

func (g *gatedAggregator) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	g.once.Do(func() {
		g.reached <- struct{}{}
		<-g.release
	})
	return g.Aggregator.Aggregate(global, updates)
}

func scrape(t *testing.T, addr, path string) string {
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
	return string(body)
}

// TestRunBenignAndDFAR joins a benign and a dfa-r client to a two-round
// tiny-sim federation and runs both to completion. Between the rounds it
// scrapes the DFA client's ops endpoint, which the one ops plane serves:
// the flclient_* instruments and the kernel pool gauges.
func TestRunBenignAndDFAR(t *testing.T) {
	cfg := experiment.Config{Dataset: "tiny-sim", Seed: testSeed}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	_, test := dataset.Generate(spec, testSeed)
	fedavg, err := experiment.NewDefense(cfg, test)
	if err != nil {
		t.Fatal(err)
	}
	reached, release := make(chan struct{}, 1), make(chan struct{})
	srv, err := flnet.NewServer(flnet.ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 2, Seed: testSeed,
		RoundTimeout: 20 * time.Second, AcceptTimeout: 20 * time.Second,
	}, &gatedAggregator{Aggregator: fedavg, reached: reached, release: release}, experiment.NewModel(spec), test)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve(lis)
		served <- err
	}()

	args := func(extra ...string) []string {
		return append([]string{"-addr", lis.Addr().String(), "-dataset", "tiny-sim",
			"-seed", "6", "-of", "2", "-timeout", "20s"}, extra...)
	}
	var benignOut, dfaOut syncBuffer
	clients := make(chan error, 2)
	go func() { clients <- run(args("-role", "benign", "-shard", "0"), &benignOut) }()
	go func() {
		clients <- run(args("-role", "dfa-r", "-shard", "1", "-samples", "4", "-ops-addr", "127.0.0.1:0"), &dfaOut)
	}()

	select {
	case <-reached:
	case err := <-clients:
		t.Fatalf("a client returned before the first aggregation: %v\n%s%s", err, benignOut.String(), dfaOut.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("round 0 never aggregated:\n%s%s", benignOut.String(), dfaOut.String())
	}
	m := regexp.MustCompile(`ops endpoint at http://(\S+)/metrics`).FindStringSubmatch(dfaOut.String())
	if m == nil {
		t.Fatalf("the -ops-addr client printed no endpoint:\n%s", dfaOut.String())
	}
	metrics := scrape(t, m[1], "/metrics")
	for _, want := range []string{
		`flclient_rounds_total{role="dfa-r"} 1`,
		`flclient_update_coords_total{role="dfa-r"}`,
		`flclient_train_seconds_count{role="dfa-r"} 1`,
		`tensor_pool_workers`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("client /metrics lacks %q:\n%s", want, metrics)
		}
	}
	close(release)

	for range 2 {
		if err := <-clients; err != nil {
			t.Errorf("client: %v", err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
	for role, out := range map[string]string{"benign": benignOut.String(), "dfa-r": dfaOut.String()} {
		for _, line := range []string{"(role=" + role + " codec=none)", "training finished"} {
			if !strings.Contains(out, line) {
				t.Errorf("%s client's stdout lacks %q:\n%s", role, line, out)
			}
		}
	}
	if resp, err := http.Get("http://" + m[1] + "/metrics"); err == nil {
		resp.Body.Close()
		t.Error("the client's ops endpoint still answers after run returned")
	}
}

// TestOracleRolesRefused: an attack that crafts from the round's benign
// updates gets none over the wire, so it would submit the unchanged global
// model every round. Each such role fails before dialing, saying why.
func TestOracleRolesRefused(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var dialed atomic.Int32
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			_ = c.Close()
		}
	}()
	for _, role := range []string{"lie", "fang", "minmax", "minsum", "signflip"} {
		err := run([]string{"-addr", lis.Addr().String(), "-dataset", "tiny-sim", "-role", role, "-timeout", "2s"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "sees only the broadcast models") {
			t.Errorf("-role %s: error = %v, want the oracle refusal", role, err)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Fatalf("oracle roles dialed the server %d times", n)
	}
}

// TestRunRejectsBadRoles: every role or flag value the catalogue cannot
// build fails before dialing (nothing listens on the address).
func TestRunRejectsBadRoles(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-role", "nosuch"}, `unknown attack "nosuch"`},
		{[]string{"-role", "none"}, `unknown role "none"`},
		{[]string{"-role", "dfa-r", "-samples", "0"}, "SampleCount must be positive"},
		{[]string{"-role", "benign", "-shard", "6", "-of", "6"}, "out of range"},
		{[]string{"-dataset", "mnist"}, "unknown spec"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:1", "-dataset", "tiny-sim"}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRoleIsTheSimulatorsConfig: a role plays exactly the Config flsim
// would run for the same names, so a cifar-sim DFA synthesizes for the
// simulator's 10 epochs, not a client-side constant.
func TestRoleIsTheSimulatorsConfig(t *testing.T) {
	got, err := roleConfig("cifar-sim", "dfa-r", 0.5, 0.05, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := experiment.Config{Dataset: "cifar-sim", Attack: "dfa-r", Beta: 0.5, LR: 0.05, SampleCount: 20, Seed: 1}
	if err := sim.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got != sim {
		t.Fatalf("role config %+v\nsimulator   %+v", got, sim)
	}
	if got.SynthesisEpochs != 10 {
		t.Fatalf("cifar-sim DFA synthesizes for %d epochs, want the simulator's 10", got.SynthesisEpochs)
	}
}
