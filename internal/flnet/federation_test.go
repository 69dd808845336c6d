package flnet

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// tenant describes one federation fixture of a multi-tenant test: its own
// dataset, population, defense and codec.
type tenant struct {
	id      string
	cfg     ServerConfig
	agg     fl.Aggregator
	genSeed int64
	spec    codec.Spec
}

// tenantData builds the tenant's dataset, model factory and IID shards.
func tenantData(t testing.TB, tn tenant) (*dataset.Dataset, *dataset.Dataset, func(rng *rand.Rand) *nn.Network, [][]int) {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, tn.genSeed)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(tn.genSeed+1)), train.Len(), tn.cfg.MinClients)
	return train, test, newModel, shards
}

// runTenantClients joins the tenant's benign clients sequentially (so
// server-assigned IDs, and therefore shards and codec rounding streams, are
// deterministic) and runs them to completion concurrently.
func runTenantClients(t testing.TB, addr string, tn tenant, train *dataset.Dataset, newModel func(rng *rand.Rand) *nn.Network, shards [][]int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < tn.cfg.MinClients; i++ {
		trainer := NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, 100, i)
		client, err := DialFederation(addr, tn.id, trainer, 10*time.Second, tn.spec)
		if err != nil {
			t.Fatalf("tenant %q client %d: %v", tn.id, i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Run(); err != nil {
				t.Errorf("tenant %q client: %v", tn.id, err)
			}
		}()
	}
	return &wg
}

// runDedicated runs the tenant alone on its own Server and listener — the
// isolation baseline.
func runDedicated(t *testing.T, tn tenant) *ServerResult {
	t.Helper()
	train, test, newModel, shards := tenantData(t, tn)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(tn.cfg, tn.agg, newModel, test)
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
	// Dedicated servers know no federation IDs; join anonymously like a
	// legacy client.
	anon := tn
	anon.id = ""
	wg := runTenantClients(t, lis.Addr().String(), anon, train, newModel, shards)
	wg.Wait()
	o := <-done
	if o.err != nil {
		t.Fatalf("tenant %q dedicated: %v", tn.id, o.err)
	}
	return o.res
}

// runHosted runs every tenant as one federation of a shared Host (whose
// join spans go to tracer, which may be nil) on one listener, joins each
// tenant's clients in order, and returns each federation's result.
func runHosted(t *testing.T, tracer *telemetry.Tracer, tenants ...tenant) []*ServerResult {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	host := NewHost()
	host.Tracer = tracer
	feds := make([]*Federation, len(tenants))
	type fedData struct {
		train    *dataset.Dataset
		newModel func(rng *rand.Rand) *nn.Network
		shards   [][]int
	}
	data := make([]fedData, len(tenants))
	for i, tn := range tenants {
		train, test, newModel, shards := tenantData(t, tn)
		fed, err := NewFederation(tn.id, tn.cfg, tn.agg, newModel, test)
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Add(fed); err != nil {
			t.Fatal(err)
		}
		feds[i] = fed
		data[i] = fedData{train: train, newModel: newModel, shards: shards}
	}
	go func() { _ = host.Serve(lis) }()

	type out struct {
		res *ServerResult
		err error
	}
	done := make([]chan out, len(tenants))
	for i, fed := range feds {
		done[i] = make(chan out, 1)
		go func(i int, fed *Federation) {
			res, err := fed.Run()
			done[i] <- out{res, err}
		}(i, fed)
	}
	var wgs []*sync.WaitGroup
	for i, tn := range tenants {
		wgs = append(wgs, runTenantClients(t, lis.Addr().String(), tn, data[i].train, data[i].newModel, data[i].shards))
	}
	for _, wg := range wgs {
		wg.Wait()
	}
	results := make([]*ServerResult, len(tenants))
	for i, tn := range tenants {
		o := <-done[i]
		if o.err != nil {
			t.Fatalf("tenant %q hosted: %v", tn.id, o.err)
		}
		results[i] = o.res
	}
	return results
}

// sameResult asserts two server results are bit-identical: metrics, round
// reports and the full final weight vector.
func sameResult(t *testing.T, label string, a, b *ServerResult) {
	t.Helper()
	if a.MaxAccuracy != b.MaxAccuracy || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("%s: accuracy diverges: max %v vs %v, final %v vs %v",
			label, a.MaxAccuracy, b.MaxAccuracy, a.FinalAccuracy, b.FinalAccuracy)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: %d vs %d rounds", label, len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("%s: round %d diverges: %+v vs %+v", label, i, a.Rounds[i], b.Rounds[i])
		}
	}
	if len(a.FinalWeights) != len(b.FinalWeights) {
		t.Fatalf("%s: final weights length %d vs %d", label, len(a.FinalWeights), len(b.FinalWeights))
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("%s: final weights diverge at %d", label, i)
		}
	}
}

// testTenants returns the two-tenant fixture: different datasets, defenses,
// codecs, populations and seeds — nothing shared but the process.
func testTenants() []tenant {
	return []tenant{
		{
			id: "alpha",
			cfg: ServerConfig{
				MinClients: 3, PerRound: 2, Rounds: 3,
				RoundTimeout: 10 * time.Second, Seed: 5,
			},
			agg:     &defense.MultiKrum{F: 1},
			genSeed: 11,
		},
		{
			id: "beta",
			cfg: ServerConfig{
				MinClients: 2, PerRound: 2, Rounds: 4,
				RoundTimeout: 10 * time.Second, Seed: 9,
				Codec: "fp16",
			},
			agg:     defense.FedAvg{},
			genSeed: 23,
			spec:    codec.Spec{Quant: codec.FP16},
		},
	}
}

// TestMultiTenantIsolationBitExact: two federations with different
// defenses, codecs, seeds and populations share one Host and one listener;
// each must produce results bit-identical to running alone on a dedicated
// server. Cross-tenant interference of any kind — routed messages, RNG
// streams, session state — would break the equality.
func TestMultiTenantIsolationBitExact(t *testing.T) {
	tenants := testTenants()
	dedicated := make([]*ServerResult, len(tenants))
	for i, tn := range tenants {
		dedicated[i] = runDedicated(t, tn)
	}

	for i, res := range runHosted(t, nil, tenants...) {
		sameResult(t, "tenant "+tenants[i].id, dedicated[i], res)
	}
}

// TestMultiTenantCheckpointResume: one federation resumes from a checkpoint
// while another trains on the same host; the resumed run must be
// bit-identical to a dedicated resume.
func TestMultiTenantCheckpointResume(t *testing.T) {
	mkTenant := func(ckpt string, rounds int) tenant {
		return tenant{
			id: "resume",
			cfg: ServerConfig{
				MinClients: 2, PerRound: 2, Rounds: rounds,
				RoundTimeout:   10 * time.Second,
				Seed:           6,
				CheckpointPath: ckpt,
				DatasetName:    dataset.TinySpec().Name,
				ModelName:      "fashion-cnn",
			},
			agg:     defense.FedAvg{},
			genSeed: 31,
		}
	}

	// Dedicated baseline: 2 rounds, crash, resume to 4.
	ckptA := filepath.Join(t.TempDir(), "a.ckpt")
	runDedicated(t, mkTenant(ckptA, 2))
	wantResumed := runDedicated(t, mkTenant(ckptA, 4))

	// Hosted: same first life, then resume on a host that is concurrently
	// training another federation.
	ckptB := filepath.Join(t.TempDir(), "b.ckpt")
	runDedicated(t, mkTenant(ckptB, 2))

	resumeTn := mkTenant(ckptB, 4)
	trainTn := testTenants()[0] // "alpha", mkrum, training from scratch

	res := runHosted(t, nil, resumeTn, trainTn)[0]
	// The resumed federation continues at round 2 and matches the dedicated
	// resume bit-for-bit despite the co-tenant's training.
	if len(res.Rounds) == 0 || res.Rounds[0].Round != 2 {
		t.Fatalf("hosted resume restarted from %+v, want round 2", res.Rounds)
	}
	sameResult(t, "hosted resume", wantResumed, res)
}

// TestAdmissionControlJoinStorm: joins beyond the bounded pending queue are
// rejected immediately with RejectAdmission while the federation is not yet
// draining its queue.
func TestAdmissionControlJoinStorm(t *testing.T) {
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 3)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	fed, err := NewFederation("storm", ServerConfig{
		MinClients: 2, PerRound: 1, Rounds: 1,
		RoundTimeout: 5 * time.Second,
		PendingJoins: 1,
	}, defense.FedAvg{}, newModel, test)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost()
	if err := host.Add(fed); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = host.Serve(lis) }()
	addr := lis.Addr().String()

	// The federation's Run is intentionally not started: its queue (cap 1)
	// never drains, so the first join parks and the second must bounce.
	stub := &stubTrainer{}
	first := make(chan error, 1)
	go func() {
		_, err := DialFederation(addr, "storm", stub, 2*time.Second, codec.Spec{})
		first <- err
	}()
	// Wait until the first join occupies the queue.
	deadline := time.Now().Add(2 * time.Second)
	for len(fed.pending) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(fed.pending) == 0 {
		t.Fatal("first join never reached the pending queue")
	}

	_, err = DialFederation(addr, "storm", stub, 2*time.Second, codec.Spec{})
	var jr *JoinRejectedError
	if !errors.As(err, &jr) || jr.Code != RejectAdmission {
		t.Fatalf("second join: want RejectAdmission, got %v", err)
	}
	// The parked first join eventually times out client-side; it must not
	// have been rejected (it is queued, not refused).
	if err := <-first; err == nil {
		t.Fatal("parked join unexpectedly completed with no admitter running")
	} else if errors.As(err, &jr) {
		t.Fatalf("parked join was rejected (%v), want queued until timeout", err)
	}
}

// TestUnknownFederationRejected: naming a federation the host does not
// serve, or joining anonymously when the host serves several, is a typed
// rejection before any round state is touched.
func TestUnknownFederationRejected(t *testing.T) {
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 3)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	cfg := ServerConfig{MinClients: 2, PerRound: 1, Rounds: 1, RoundTimeout: 5 * time.Second}
	host := NewHost()
	for _, id := range []string{"a", "b"} {
		fed, err := NewFederation(id, cfg, defense.FedAvg{}, newModel, test)
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Add(fed); err != nil {
			t.Fatal(err)
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = host.Serve(lis) }()

	stub := &stubTrainer{}
	for _, name := range []string{"nope", ""} {
		_, err := DialFederation(lis.Addr().String(), name, stub, 2*time.Second, codec.Spec{})
		var jr *JoinRejectedError
		if !errors.As(err, &jr) || jr.Code != RejectUnknownFederation {
			t.Fatalf("federation %q: want RejectUnknownFederation, got %v", name, err)
		}
	}
}

// stubTrainer satisfies Trainer for handshake-only tests.
type stubTrainer struct{}

func (s *stubTrainer) Train(_ int, global, _ []float64) ([]float64, int, error) {
	return global, 1, nil
}
