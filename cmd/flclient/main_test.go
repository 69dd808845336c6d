package main

// Tests of the flclient binary: real clients driven through run against an
// in-process server over loopback, the runs it refuses before dialing, and
// the flags it shares with flsim.

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"regexp"
	"slices"
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

// tinyArgs are the run flags of a tiny-sim federation of two clients for
// two rounds, one of them a dfa-r attacker (-frac 0.5 of -clients 2): the
// placement makes client 0 the attacker, as in the simulator.
var tinyArgs = []string{"-dataset", "tiny-sim", "-seed", "6", "-attack", "dfa-r", "-frac", "0.5",
	"-clients", "2", "-per-round", "2", "-rounds", "2", "-samples", "4", "-timeout", "20s"}

// serveTiny serves tinyArgs' federation under FedAvg on loopback, its
// aggregator wrapped by wrap and observed by obs (either may be nil), and
// returns the address and the Serve result.
func serveTiny(t *testing.T, wrap func(fl.Aggregator) fl.Aggregator, obs fl.AggregationObserver) (string, <-chan error) {
	t.Helper()
	cfg := experiment.Config{Dataset: "tiny-sim", Seed: testSeed}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	_, test := dataset.Generate(spec, testSeed)
	agg, err := experiment.NewDefense(cfg, test)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		agg = wrap(agg)
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 2, Seed: testSeed, Observer: obs,
		RoundTimeout: 20 * time.Second, AcceptTimeout: 20 * time.Second,
	}, agg, experiment.NewModel(spec), test)
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
	return lis.Addr().String(), served
}

// TestRunBenignAndDFAR joins tinyArgs' two clients and runs both to
// completion. Between the rounds it scrapes the attacker's ops endpoint,
// which the one ops plane serves: the flclient_* instruments and the
// kernel pool gauges.
func TestRunBenignAndDFAR(t *testing.T) {
	reached, release := make(chan struct{}, 1), make(chan struct{})
	addr, served := serveTiny(t, func(agg fl.Aggregator) fl.Aggregator {
		return &gatedAggregator{Aggregator: agg, reached: reached, release: release}
	}, nil)
	args := append([]string{"-addr", addr, "-ops-addr", "127.0.0.1:0"}, tinyArgs...)
	outs := [2]*syncBuffer{{}, {}}
	clients := make(chan error, 2)
	for _, out := range outs {
		go func() { clients <- run(args, out) }()
	}
	both := func() string { return outs[0].String() + outs[1].String() }

	select {
	case <-reached:
	case err := <-clients:
		t.Fatalf("a client returned before the first aggregation: %v\n%s", err, both())
	case <-time.After(30 * time.Second):
		t.Fatalf("round 0 never aggregated:\n%s", both())
	}
	var dfaOut *syncBuffer
	for _, out := range outs {
		if strings.Contains(out.String(), "(role=dfa-r codec=none)") {
			dfaOut = out
		}
	}
	if dfaOut == nil {
		t.Fatalf("no client joined as the dfa-r attacker:\n%s", both())
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
	for _, line := range []string{"(role=benign codec=none)", "(role=dfa-r codec=none)", "received final model"} {
		if !strings.Contains(both(), line) {
			t.Errorf("the clients' stdout lacks %q:\n%s", line, both())
		}
	}
	if resp, err := http.Get("http://" + m[1] + "/metrics"); err == nil {
		resp.Body.Close()
		t.Error("the client's ops endpoint still answers after run returned")
	}
}

// samplesObserver records the NumSamples each client reported.
type samplesObserver struct {
	mu      sync.Mutex
	samples map[int][]int
}

func (o *samplesObserver) ObserveAggregation(_ int, _ []float64, updates []fl.Update, _ fl.Selection) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, u := range updates {
		o.samples[u.ClientID] = append(o.samples[u.ClientID], u.NumSamples)
	}
}

// TestAttackerReportsMeanShardSize: a networked attacker reports the sample
// count the simulator's crafted updates report, the mean shard size, so
// FedAvg, REFD and AdaptiveREFD weigh it as they weigh it in-process.
// tiny-sim's 240 training samples over two clients make that 120.
func TestAttackerReportsMeanShardSize(t *testing.T) {
	obs := &samplesObserver{samples: map[int][]int{}}
	addr, served := serveTiny(t, nil, obs)
	clients := make(chan error, 2)
	for range 2 {
		go func() { clients <- run(append([]string{"-addr", addr}, tinyArgs...), io.Discard) }()
	}
	for range 2 {
		if err := <-clients; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := obs.samples[0]; !slices.Equal(got, []int{120, 120}) {
		t.Fatalf("attacker (client 0) reported NumSamples %v over two rounds, want the mean shard size 120 each", got)
	}
}

// TestOracleRolesRefused: an attack that crafts from the round's benign
// updates gets none over the wire, so it would submit the unchanged global
// model every round. A run with such an attack fails before dialing,
// saying why.
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
	for _, attack := range []string{"lie", "fang", "minmax", "minsum", "signflip"} {
		err := run([]string{"-addr", lis.Addr().String(), "-dataset", "tiny-sim", "-attack", attack, "-timeout", "2s"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "sees only the broadcast models") {
			t.Errorf("-attack %s: error = %v, want the oracle refusal", attack, err)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Fatalf("oracle attacks dialed the server %d times", n)
	}
}

// TestRunRejectsBadRoles: every run the catalogue cannot build fails before
// dialing (nothing listens on the address).
func TestRunRejectsBadRoles(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-attack", "nosuch"}, `unknown attack "nosuch"`},
		{[]string{"-attack", "dfa-r", "-samples", "-1"}, "SampleCount must be positive"},
		{[]string{"-frac", "0.9"}, "AttackerFrac 0.9 outside"},
		{[]string{"-dataset", "mnist"}, "unknown spec"},
		{[]string{"-role", "benign"}, "flag provided but not defined: -role"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:1", "-dataset", "tiny-sim"}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestFlagsAreTheSimulators: one argument list parsed by flclient and by the
// run flags flsim binds gives one normalized Config, so a client plays the
// run flsim would simulate — a cifar-sim DFA synthesizes for the
// simulator's 10 epochs, not a client-side constant.
func TestFlagsAreTheSimulators(t *testing.T) {
	args := []string{"-dataset", "cifar-sim", "-attack", "dfa-r", "-defense", "bulyan", "-clients", "20",
		"-per-round", "8", "-rounds", "3", "-samples", "20", "-seed", "4", "-codec", "int8", "-topk", "0.1",
		"-error-feedback", "-placement", "first", "-eval-limit", "64"}
	got, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("flsim", flag.ContinueOnError)
	var sim experiment.Config
	sim.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := sim.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got.cfg != sim {
		t.Fatalf("flclient config %+v\nflsim config    %+v", got.cfg, sim)
	}
	if got.cfg.SynthesisEpochs != 10 {
		t.Fatalf("cifar-sim DFA synthesizes for %d epochs, want the simulator's 10", got.cfg.SynthesisEpochs)
	}
}
