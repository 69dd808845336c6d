package flnet

// Engine-over-sockets tests: the unified round engine driving real TCP
// federations under production participation — deadline-missing stragglers,
// zero-responder rounds, join-phase abuse, and async buffered aggregation.

import (
	"cmp"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
)

// netFixture bundles the tiny task every socket test trains on.
type netFixture struct {
	train, test *dataset.Dataset
	shards      [][]int
	newModel    func(rng *rand.Rand) *nn.Network
}

func newNetFixture(t *testing.T, seed int64, clients int) *netFixture {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, seed)
	return &netFixture{
		train:  train,
		test:   test,
		shards: dataset.PartitionIID(rand.New(rand.NewSource(seed)), train.Len(), clients),
		newModel: func(rng *rand.Rand) *nn.Network {
			return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
		},
	}
}

func (f *netFixture) listen(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	return lis
}

// runBenign dials and serves one honest client until the server finishes.
func (f *netFixture) runBenign(addr string, shard int, seed int64) {
	trainer := NewBenignTrainer(f.train, f.shards[shard], f.newModel, 0.05, 1, 8, seed, shard)
	client, err := DialCodec(addr, trainer, 10*time.Second, codec.Spec{})
	if err != nil {
		return
	}
	_, _ = client.Run() // the server may drop us mid-round; fine
}

// joinSilent joins the federation and then never answers a training
// request: a real straggler that misses every RoundTimeout.
func joinSilent(t *testing.T, addr string, hold time.Duration) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	conn := NewConn(raw, 5*time.Second)
	defer conn.Close()
	if err := conn.Send(&Envelope{Type: MsgJoin}); err != nil {
		t.Error(err)
		return
	}
	if _, err := conn.Recv(); err != nil {
		t.Error(err)
		return
	}
	time.Sleep(hold)
}

// TestEngineDropsRealStraggler runs a federation where one selected client
// always misses RoundTimeout: every round must complete, and the engine's
// report must show the straggler as missing from Responded while the rounds
// still aggregate and evaluate.
func TestEngineDropsRealStraggler(t *testing.T) {
	f := newNetFixture(t, 21, 3)
	lis := f.listen(t)
	srv, err := NewServer(ServerConfig{
		MinClients:   3,
		PerRound:     3,
		Rounds:       2,
		RoundTimeout: 500 * time.Millisecond,
		Seed:         4,
	}, defense.FedAvg{}, f.newModel, f.test)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *ServerResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := srv.Serve(lis)
		done <- out{res, err}
	}()

	addr := lis.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.runBenign(addr, i, int64(10+i))
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		joinSilent(t, addr, 3*time.Second)
	}()

	var o out
	select {
	case o = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("server wedged on straggler")
	}
	wg.Wait()
	if o.err != nil {
		t.Fatalf("server: %v", o.err)
	}
	if len(o.res.Rounds) != 2 {
		t.Fatalf("server ran %d rounds, want 2", len(o.res.Rounds))
	}
	for _, rr := range o.res.Rounds {
		if rr.Selected != 3 {
			t.Fatalf("round %d selected %d, want 3", rr.Round, rr.Selected)
		}
		if rr.Responded != 2 {
			t.Fatalf("round %d responded %d, want 2 (straggler dropped)", rr.Round, rr.Responded)
		}
		if rr.Aggregations != 1 {
			t.Fatalf("round %d aggregations %d, want 1", rr.Round, rr.Aggregations)
		}
		if math.IsNaN(rr.Accuracy) {
			t.Fatalf("round %d was not evaluated", rr.Round)
		}
	}
}

// TestEngineZeroResponderRounds runs a federation whose only client never
// answers: every round must complete with zero responders, be recorded as
// such, and leave the global weights untouched.
func TestEngineZeroResponderRounds(t *testing.T) {
	f := newNetFixture(t, 22, 1)
	lis := f.listen(t)
	const seed = 9
	srv, err := NewServer(ServerConfig{
		MinClients:   1,
		PerRound:     1,
		Rounds:       2,
		RoundTimeout: 300 * time.Millisecond,
		Seed:         seed,
	}, defense.FedAvg{}, f.newModel, nil /* no test set: weight check below */)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *ServerResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := srv.Serve(lis)
		done <- out{res, err}
	}()
	go joinSilent(t, lis.Addr().String(), 2*time.Second)

	var o out
	select {
	case o = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("server wedged on zero responders")
	}
	if o.err != nil {
		t.Fatalf("server: %v", o.err)
	}
	if len(o.res.Rounds) != 2 {
		t.Fatalf("server ran %d rounds, want 2", len(o.res.Rounds))
	}
	for _, rr := range o.res.Rounds {
		if rr.Responded != 0 || rr.Aggregations != 0 {
			t.Fatalf("round %d: responded %d aggregations %d, want 0/0", rr.Round, rr.Responded, rr.Aggregations)
		}
	}
	// Zero responders ever: the final weights are exactly the seed's
	// initial model.
	initial := f.newModel(rand.New(rand.NewSource(seed))).WeightVector()
	if len(o.res.FinalWeights) != len(initial) {
		t.Fatalf("final weights length %d, want %d", len(o.res.FinalWeights), len(initial))
	}
	for i := range initial {
		if o.res.FinalWeights[i] != initial[i] {
			t.Fatalf("global weights moved at %d despite zero responders", i)
		}
	}
}

// TestHandshakeDeadlineUnblocksJoinPhase: a half-open connection that sends
// nothing must only hold the join phase for HandshakeTimeout (not the much
// larger RoundTimeout), after which a real client can complete the session.
func TestHandshakeDeadlineUnblocksJoinPhase(t *testing.T) {
	f := newNetFixture(t, 23, 1)
	lis := f.listen(t)
	srv, err := NewServer(ServerConfig{
		MinClients:       1,
		PerRound:         1,
		Rounds:           1,
		RoundTimeout:     time.Hour, // the legacy handshake deadline: would wedge the test
		HandshakeTimeout: 200 * time.Millisecond,
		Seed:             5,
	}, defense.FedAvg{}, f.newModel, f.test)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(lis)
		done <- err
	}()

	addr := lis.Addr().String()
	// A half-open connection that never says hello.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// Give the server time to accept the garbage conn first, then join for
	// real: the handshake deadline must have evicted the silent peer.
	time.Sleep(50 * time.Millisecond)
	go f.runBenign(addr, 0, 31)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("half-open connection stalled the join phase")
	}
}

// TestAcceptTimeoutFailsFast: with AcceptTimeout set and no clients, Serve
// must fail with a join-phase timeout instead of waiting forever.
func TestAcceptTimeoutFailsFast(t *testing.T) {
	f := newNetFixture(t, 24, 1)
	lis := f.listen(t)
	srv, err := NewServer(ServerConfig{
		MinClients:    1,
		PerRound:      1,
		Rounds:        1,
		RoundTimeout:  time.Second,
		AcceptTimeout: 300 * time.Millisecond,
		Seed:          6,
	}, defense.FedAvg{}, f.newModel, f.test)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(lis)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a join-phase timeout error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AcceptTimeout did not unblock the join phase")
	}
}

// TestServeStopsAcceptLoopKeepsListener pins who owns the listener: Serve on
// a plain TCP listener returns with its accept loop gone while the listener
// stays open, and a second Serve on the same listener, with fresh clients,
// completes.
func TestServeStopsAcceptLoopKeepsListener(t *testing.T) {
	f := newNetFixture(t, 26, 1)
	lis := f.listen(t)
	before := runtime.NumGoroutine()
	for pass := 0; pass < 2; pass++ {
		srv, err := NewServer(ServerConfig{
			MinClients: 1, PerRound: 1, Rounds: 1,
			RoundTimeout: 10 * time.Second, Seed: 8,
		}, defense.FedAvg{}, f.newModel, f.test)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := srv.Serve(lis)
			done <- err
		}()
		client := make(chan struct{})
		go func() {
			defer close(client)
			f.runBenign(lis.Addr().String(), 0, int64(50+pass))
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("pass %d: Serve never returned", pass)
		}
		<-client
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("pass %d: %d goroutines before Serve, %d after it returned:\n%s",
				pass, before, n, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestAsyncBufferedOverSockets drives the engine's FedBuff-style mode over
// real connections, with deterministic trainers, and checks the run against
// an oracle: the same fl.Engine over an in-process transport that returns
// the same updates, each in a vector of its own, must end on the same final
// weights bit for bit — dense, and with every update compressed (the
// in-process engine encodes what the socket clients encode). Async is where
// an update outlives its round, so this is what catches a buffered update
// that still points into the vector or frame its session decodes the next
// update into.
func TestAsyncBufferedOverSockets(t *testing.T) {
	for _, token := range []string{"", "int8,topk=0.1,ef"} {
		t.Run(cmp.Or(token, "dense"), func(t *testing.T) { testAsyncBufferedOverSockets(t, token) })
	}
}

func testAsyncBufferedOverSockets(t *testing.T, token string) {
	spec, err := codec.ParseSpec(token)
	if err != nil {
		t.Fatal(err)
	}
	f := newNetFixture(t, 25, 3)
	lis := f.listen(t)
	cfg := ServerConfig{
		MinClients:   3,
		PerRound:     2,
		Rounds:       4,
		RoundTimeout: 10 * time.Second,
		Seed:         7,
		Scenario:     fl.Scenario{Async: &fl.AsyncConfig{Buffer: 3, MaxDelay: 1}},
		Codec:        token,
	}
	// Client i answers every request with global + its fixed delta.
	initial := f.newModel(rand.New(rand.NewSource(cfg.Seed))).WeightVector()
	rng := rand.New(rand.NewSource(3))
	deltas := make([][]float64, cfg.MinClients)
	for i := range deltas {
		deltas[i] = make([]float64, len(initial))
		for j := range deltas[i] {
			deltas[i][j] = rng.NormFloat64() * 0.01
		}
	}
	train := func(id int, global []float64) ([]float64, int) {
		w := make([]float64, len(global))
		for j, g := range global {
			w[j] = g + deltas[id][j]
		}
		return w, 10 + id
	}

	srv, err := NewServer(cfg, defense.FedAvg{}, f.newModel, f.test)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *ServerResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := srv.Serve(lis)
		done <- out{res, err}
	}()
	var wg sync.WaitGroup
	for i := 0; i < cfg.MinClients; i++ {
		// Sequential joins get sequential IDs, so session i trains as client i.
		client, err := DialCodec(lis.Addr().String(), funcTrainer(func(_ int, global []float64) ([]float64, int) {
			return train(i, global)
		}), 10*time.Second, spec)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if client.ID != i {
			t.Fatalf("client %d assigned ID %d", i, client.ID)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = client.Run()
		}()
	}
	var o out
	select {
	case o = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("async federation wedged")
	}
	wg.Wait()
	if o.err != nil {
		t.Fatalf("server: %v", o.err)
	}
	if len(o.res.Rounds) != 4 {
		t.Fatalf("server ran %d rounds, want 4", len(o.res.Rounds))
	}
	totalAggs := 0
	for _, rr := range o.res.Rounds {
		totalAggs += rr.Aggregations
		if math.IsNaN(rr.Accuracy) {
			t.Fatalf("round %d was not evaluated", rr.Round)
		}
	}
	if totalAggs == 0 {
		t.Fatal("async federation never aggregated")
	}
	if math.IsNaN(o.res.FinalAccuracy) {
		t.Fatal("final accuracy missing")
	}

	eng := &fl.Engine{
		TotalClients: cfg.MinClients,
		PerRound:     cfg.PerRound,
		Rounds:       cfg.Rounds,
		Seed:         cfg.Seed,
		Scenario:     cfg.Scenario,
		Transport:    trainerTransport(train),
		Aggregator:   defense.FedAvg{},
		Codec:        spec,
	}
	_, want, err := eng.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := weightsDigest(o.res.FinalWeights), weightsDigest(want); got != want {
		t.Fatalf("async final weights over sockets %s, in-process %s", got, want)
	}
}

// trainerTransport is the in-process twin of a socket federation whose
// client id answers with train(id, global): each update in a fresh vector.
type trainerTransport func(id int, global []float64) ([]float64, int)

func (tr trainerTransport) Collect(_ int, ids []int, global, _ []float64) ([]fl.Update, error) {
	updates := make([]fl.Update, len(ids))
	for i, id := range ids {
		w, n := tr(id, global)
		updates[i] = fl.Update{ClientID: id, Weights: w, NumSamples: n}
	}
	return updates, nil
}
