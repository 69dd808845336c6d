package flnet

import (
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
)

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	return NewConn(a, 2*time.Second), NewConn(b, 2*time.Second)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	client, server := pipeConns(t)
	defer client.Close()
	defer server.Close()
	server.dim = 3

	// An inlined-prev TrainRequest carries w(t) then w(t−1) in one body.
	sent := &Envelope{
		Type:    MsgTrainRequest,
		Flags:   PrevInline,
		Round:   4,
		Weights: []float64{1, 2, 3, 0, 1, 2},
	}
	done := make(chan error, 1)
	go func() { done <- client.Send(sent) }()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Type != sent.Type || got.Flags != PrevInline || got.Round != 4 {
		t.Fatalf("envelope fields lost: %+v", got)
	}
	if !slices.Equal(got.Weights, sent.Weights) {
		t.Fatal("weights corrupted in transit")
	}
}

// TestHandshakeRoundTrip pins the variable-length bodies: every string and
// the announced dimension survive, and an Update's header fields with them.
func TestHandshakeRoundTrip(t *testing.T) {
	client, server := pipeConns(t)
	defer client.Close()
	defer server.Close()
	server.dim = 2

	msgs := []*Envelope{
		{Type: MsgJoin, Codec: "int8,topk=0.1,ef", Federation: "alpha"},
		{Type: MsgJoinAck, ClientID: 7, Dim: 10010, Codec: "raw", Federation: "alpha"},
		{Type: MsgJoinReject, RejectCode: RejectAdmission, Err: "queue full"},
		{Type: MsgUpdate, Round: 3, ClientID: 7, NumSamples: 50, Weights: []float64{0.5, -2}},
		{Type: MsgUpdate, Flags: UpdateFrame, Round: 3, ClientID: 7, NumSamples: 50, Frame: []byte{1, 2, 3}},
		{Type: MsgDone, Weights: []float64{0.25, 4}},
	}
	go func() {
		for _, m := range msgs {
			_ = client.Send(m)
		}
	}()
	for _, want := range msgs {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v, want %+v", want.Type, got, want)
		}
	}
}

func TestMultipleEnvelopesSameConn(t *testing.T) {
	client, server := pipeConns(t)
	defer client.Close()
	defer server.Close()
	server.dim = 1

	go func() {
		for i := 0; i < 5; i++ {
			_ = client.Send(&Envelope{Type: MsgUpdate, Round: i, Weights: []float64{float64(i)}})
		}
	}()
	for i := 0; i < 5; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != i || got.Weights[0] != float64(i) {
			t.Fatalf("message %d corrupted: %+v", i, got)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	tests := map[MsgType]string{
		MsgJoin:         "join",
		MsgJoinAck:      "joinack",
		MsgTrainRequest: "trainrequest",
		MsgUpdate:       "update",
		MsgDone:         "done",
		MsgType(99):     "msgtype(99)",
	}
	for mt, want := range tests {
		if got := mt.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(mt), got, want)
		}
	}
}

func TestServerConfigValidate(t *testing.T) {
	good := ServerConfig{MinClients: 4, PerRound: 2, Rounds: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.RoundTimeout == 0 {
		t.Fatal("Validate should default RoundTimeout")
	}
	bad := []ServerConfig{
		{MinClients: 0, PerRound: 1, Rounds: 1},
		{MinClients: 2, PerRound: 0, Rounds: 1},
		{MinClients: 2, PerRound: 3, Rounds: 1},
		{MinClients: 2, PerRound: 1, Rounds: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

// TestEndToEndTraining runs a real federation over loopback TCP: 6 benign
// clients, 2 data-free attackers, an mKrum server — and verifies the global
// model learns and every participant receives the final weights.
func TestEndToEndTraining(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 5)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(1)), train.Len(), 6)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	srv, err := NewServer(ServerConfig{
		MinClients:   8,
		PerRound:     4,
		Rounds:       6,
		RoundTimeout: 10 * time.Second,
		Seed:         3,
	}, &defense.MultiKrum{F: 1}, newModel, test)
	if err != nil {
		t.Fatal(err)
	}

	type serveOut struct {
		res *ServerResult
		err error
	}
	serverDone := make(chan serveOut, 1)
	go func() {
		res, err := srv.Serve(lis)
		serverDone <- serveOut{res, err}
	}()

	var wg sync.WaitGroup
	finals := make([][]float64, 8)
	errs := make([]error, 8)
	addr := lis.Addr().String()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var trainer Trainer
			if i < 6 {
				trainer = NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, int64(100+i), i)
			} else {
				dfa, err := core.NewDFAR(core.DFAConfig{
					Classes:         spec.Classes,
					ImgC:            spec.Channels,
					ImgSize:         spec.Size,
					SampleCount:     4,
					SynthesisEpochs: 2,
					Trained:         true,
				})
				if err != nil {
					errs[i] = err
					return
				}
				trainer = NewAttackTrainer(dfa, newModel, int64(100+i), i, 40)
			}
			client, err := DialCodec(addr, trainer, 10*time.Second, codec.Spec{})
			if err != nil {
				errs[i] = err
				return
			}
			finals[i], errs[i] = client.Run()
		}(i)
	}
	wg.Wait()
	out := <-serverDone
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if len(out.res.Rounds) != 6 {
		t.Fatalf("server ran %d rounds, want 6", len(out.res.Rounds))
	}
	for _, rr := range out.res.Rounds {
		if rr.Responded == 0 {
			t.Fatalf("round %d had no responders", rr.Round)
		}
	}
	if out.res.MaxAccuracy < 0.4 {
		t.Fatalf("networked federation failed to learn: max accuracy %.3f", out.res.MaxAccuracy)
	}
	// Every client must hold the exact final global model.
	for i, fw := range finals {
		if len(fw) != len(out.res.FinalWeights) {
			t.Fatalf("client %d final weights length %d", i, len(fw))
		}
		for j := range fw {
			if fw[j] != out.res.FinalWeights[j] {
				t.Fatalf("client %d final weights diverge at %d", i, j)
			}
		}
	}
}

// TestStragglerToleration verifies that a client missing the round deadline
// does not wedge the server.
func TestStragglerToleration(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 6)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(2)), train.Len(), 3)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	srv, err := NewServer(ServerConfig{
		MinClients:   3,
		PerRound:     3,
		Rounds:       2,
		RoundTimeout: 500 * time.Millisecond,
		Seed:         4,
	}, defense.FedAvg{}, newModel, test)
	if err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	var srvRes *ServerResult
	go func() {
		res, err := srv.Serve(lis)
		srvRes = res
		serverDone <- err
	}()

	addr := lis.Addr().String()
	var wg sync.WaitGroup
	// Two healthy clients.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trainer := NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, int64(10+i), i)
			client, err := DialCodec(addr, trainer, 5*time.Second, codec.Spec{})
			if err != nil {
				return
			}
			_, _ = client.Run() // may fail when the server moves on; fine
		}(i)
	}
	// One straggler that joins but never answers training requests.
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		conn := NewConn(raw, 5*time.Second)
		defer conn.Close()
		if err := conn.Send(&Envelope{Type: MsgJoin}); err != nil {
			return
		}
		if _, err := conn.Recv(); err != nil {
			return
		}
		time.Sleep(3 * time.Second) // stay silent past every deadline
	}()

	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server wedged on straggler")
	}
	wg.Wait()
	if len(srvRes.Rounds) != 2 {
		t.Fatalf("server ran %d rounds, want 2", len(srvRes.Rounds))
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialCodec("127.0.0.1:1", nil, time.Second, codec.Spec{}); err == nil {
		t.Fatal("expected error for nil trainer")
	}
	if _, err := DialCodec("127.0.0.1:0", &BenignTrainer{}, 200*time.Millisecond, codec.Spec{}); err == nil {
		t.Fatal("expected dial error for unroutable address")
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 7)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(3)), train.Len(), 1)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(ServerConfig{
		MinClients:   1,
		PerRound:     1,
		Rounds:       1,
		RoundTimeout: 2 * time.Second,
		Seed:         5,
	}, defense.FedAvg{}, newModel, test)
	if err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(lis)
		serverDone <- err
	}()

	addr := lis.Addr().String()
	// A bogus connection that speaks the wrong first message: the server
	// must drop it and keep accepting.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bogus := NewConn(raw, time.Second)
	_ = bogus.Send(&Envelope{Type: MsgUpdate})
	_ = bogus.Close()

	// A real client arrives afterwards and completes the session.
	trainer := NewBenignTrainer(train, shards[0], newModel, 0.05, 1, 8, 9, 0)
	client, err := DialCodec(addr, trainer, 5*time.Second, codec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestAttackTrainerWrongCount(t *testing.T) {
	spec := dataset.TinySpec()
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	at := NewAttackTrainer(badCountAttack{}, newModel, 1, 0, 10)
	global := newModel(rand.New(rand.NewSource(2))).WeightVector()
	if _, _, err := at.Train(0, global, global); err == nil {
		t.Fatal("expected error for multi-vector attack response")
	}
}

type badCountAttack struct{}

func (badCountAttack) Name() string { return "badcount" }

func (badCountAttack) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	return [][]float64{ctx.Global, ctx.Global}, nil
}
