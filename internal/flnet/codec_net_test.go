package flnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
)

// runCodecFederation runs a small benign federation over loopback TCP under
// cfg (its Rounds, Codec and Scenario; PerRound 0 selects every client)
// with one client per spec, each training through wrap (nil = as is).
// Clients join sequentially so server-assigned IDs (and therefore shards and
// rounding streams) are deterministic across runs — the bit-identity tests
// below depend on it.
func runCodecFederation(t *testing.T, cfg ServerConfig, agg fl.Aggregator, clientSpecs []codec.Spec, wrap func(id int, tr Trainer) Trainer) *ServerResult {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 11)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	n := len(clientSpecs)
	shards := dataset.PartitionIID(rand.New(rand.NewSource(1)), train.Len(), n)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cfg.MinClients, cfg.RoundTimeout, cfg.Seed = n, 10*time.Second, 7
	if cfg.PerRound == 0 {
		cfg.PerRound = n
	}
	srv, err := NewServer(cfg, agg, newModel, test)
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

	addr := lis.Addr().String()
	clients := make([]*Client, n)
	for i, cs := range clientSpecs {
		var trainer Trainer = NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, 100, i)
		if wrap != nil {
			trainer = wrap(i, trainer)
		}
		client, err := DialCodec(addr, trainer, 10*time.Second, cs)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if client.ID != i {
			t.Fatalf("client %d assigned ID %d; sequential joins must get sequential IDs", i, client.ID)
		}
		clients[i] = client
	}

	finals := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *Client) {
			defer wg.Done()
			finals[i], errs[i] = client.Run()
		}(i, client)
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
	if len(out.res.Rounds) != cfg.Rounds {
		t.Fatalf("server ran %d rounds, want %d", len(out.res.Rounds), cfg.Rounds)
	}
	for _, rr := range out.res.Rounds {
		if rr.Responded != rr.Selected {
			t.Fatalf("round %d: %d/%d responded — codec session dropped updates", rr.Round, rr.Responded, rr.Selected)
		}
	}
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
	return out.res
}

// TestCodecSessionEndToEnd runs a lossy int8+top-k+EF federation over real
// sockets: every update travels as a codec frame and reaches the mKrum
// server as that frame alone, and no round drops a client.
func TestCodecSessionEndToEnd(t *testing.T) {
	cs := codec.Spec{Quant: codec.Int8, TopK: 0.25, EF: true}
	specs := []codec.Spec{cs, cs, cs, cs}
	runCodecFederation(t, ServerConfig{Rounds: 3, Codec: cs.String()}, &defense.MultiKrum{F: 1}, specs, nil)
}

// TestCodecRawMatchesLegacyBitExact: the raw codec is the lossless control —
// a federation that ships raw frames must finish with weights bit-identical
// to the same federation shipping legacy dense envelopes.
func TestCodecRawMatchesLegacyBitExact(t *testing.T) {
	legacy := runCodecFederation(t, ServerConfig{Rounds: 2}, &defense.MultiKrum{F: 1}, make([]codec.Spec, 3), nil)
	raw := runCodecFederation(t, ServerConfig{Rounds: 2, Codec: "raw"}, &defense.MultiKrum{F: 1},
		[]codec.Spec{{Quant: codec.Raw}, {Quant: codec.Raw}, {Quant: codec.Raw}}, nil)
	if len(legacy.FinalWeights) != len(raw.FinalWeights) {
		t.Fatalf("weight length mismatch: %d vs %d", len(legacy.FinalWeights), len(raw.FinalWeights))
	}
	for i := range legacy.FinalWeights {
		if legacy.FinalWeights[i] != raw.FinalWeights[i] {
			t.Fatalf("raw codec diverged from legacy at weight %d: %g vs %g",
				i, raw.FinalWeights[i], legacy.FinalWeights[i])
		}
	}
}

// TestCodecMixedLegacyAndCompressed: a legacy client ("" negotiation) is
// always served, even by a codec-enabled server; the round then mixes dense
// and frame-carrying updates and the defense falls back to dense geometry.
func TestCodecMixedLegacyAndCompressed(t *testing.T) {
	cs := codec.Spec{Quant: codec.FP16}
	runCodecFederation(t, ServerConfig{Rounds: 2, Codec: cs.String()}, &defense.MultiKrum{F: 1}, []codec.Spec{{}, cs, cs}, nil)
}

// wrappedAggregator exposes only fl.Aggregator's methods, as a decorator
// around a rule (a timing wrapper, say) does.
type wrappedAggregator struct{ fl.Aggregator }

// TestCodecWrappedAggregatorBitExact: a compressed federation whose mKrum
// sits behind a wrapper embedding fl.Aggregator finishes with the same final
// weights as the bare rule. How a round is aggregated follows from its
// updates — frame-only or dense — never from the aggregator's type, so
// decorating a defense cannot move a bit.
func TestCodecWrappedAggregatorBitExact(t *testing.T) {
	cs := codec.Spec{Quant: codec.Int8, TopK: 0.25, EF: true}
	specs := []codec.Spec{cs, cs, cs, cs}
	cfg := ServerConfig{Rounds: 3, Codec: cs.String()}
	bare := runCodecFederation(t, cfg, &defense.MultiKrum{F: 1}, specs, nil)
	wrapped := runCodecFederation(t, cfg, wrappedAggregator{&defense.MultiKrum{F: 1}}, specs, nil)
	if got, want := weightsDigest(wrapped.FinalWeights), weightsDigest(bare.FinalWeights); got != want {
		t.Fatalf("wrapped mKrum final weights %s, bare %s", got, want)
	}
}

// TestAsyncBufferedCompressedOverSockets is the compressed twin of
// TestAsyncBufferedOverSockets: int8+top-k+EF frames wait in the async
// buffer as they arrived and are reconstructed at flush, against the global
// their clients trained from. Its reference is the same federation over a
// dense session whose clients send what the server would reconstruct on
// receipt — each frame's Reconstruct against the global it was encoded
// from — and the two must end bit for bit equal.
func TestAsyncBufferedCompressedOverSockets(t *testing.T) {
	cs := codec.Spec{Quant: codec.Int8, TopK: 0.25, EF: true}
	cfg := ServerConfig{
		Rounds:   4,
		PerRound: 2,
		Scenario: fl.Scenario{Async: &fl.AsyncConfig{Buffer: 3, MaxDelay: 1}},
	}
	eager := runCodecFederation(t, cfg, defense.FedAvg{}, make([]codec.Spec, 3), func(id int, tr Trainer) Trainer {
		return &reconstructingTrainer{inner: tr, id: id, enc: codec.NewEncoder(cs)}
	})
	cfg.Codec = cs.String()
	res := runCodecFederation(t, cfg, defense.FedAvg{}, []codec.Spec{cs, cs, cs}, nil)
	aggs := 0
	for _, rr := range res.Rounds {
		aggs += rr.Aggregations
	}
	if aggs == 0 {
		t.Fatal("async federation never aggregated")
	}
	if got, want := weightsDigest(res.FinalWeights), weightsDigest(eager.FinalWeights); got != want {
		t.Fatalf("async compressed final weights %s, reconstructed on receipt %s", got, want)
	}
}

// reconstructingTrainer sends, over a dense session, the reconstruction of
// the frame a compressed client with the same ID would send.
type reconstructingTrainer struct {
	inner Trainer
	id    int
	enc   *codec.Encoder
}

func (r *reconstructingTrainer) Train(round int, global, prev []float64) ([]float64, int, error) {
	w, n, err := r.inner.Train(round, global, prev)
	if err != nil {
		return nil, 0, err
	}
	return r.enc.Encode(r.id, round, global, w).Reconstruct(global), n, nil
}

// weightsDigest is the first 16 hex digits of SHA-256 over the weights'
// Float64bits, 64-bit little-endian.
func weightsDigest(w []float64) string {
	h := sha256.New()
	var word [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCodecNegotiationReject: a client whose codec the server does not serve
// is rejected with a typed error before any round starts, the rejected
// connection does not consume a MinClients slot, compatible clients that
// follow complete the session normally, and a join after the federation has
// filled gets a typed RejectClosed instead of sitting in the backlog.
func TestCodecNegotiationReject(t *testing.T) {
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 13)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(2)), train.Len(), 2)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(ServerConfig{
		MinClients:   2,
		PerRound:     2,
		Rounds:       1,
		RoundTimeout: 10 * time.Second,
		Seed:         9,
		Codec:        "int8",
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
	mk := func(i int) Trainer {
		return NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, 40, i)
	}

	// A client requesting a codec the server does not serve must get the
	// typed rejection, not a hang or a generic protocol error.
	_, err = DialCodec(addr, mk(0), 5*time.Second, codec.Spec{Quant: codec.FP16})
	var rej *JoinRejectedError
	if !errors.As(err, &rej) || rej.Code != RejectCodec {
		t.Fatalf("mismatched codec: got %v, want a %s *JoinRejectedError", err, RejectCodec)
	}
	if !strings.Contains(rej.Reason, `"fp16"`) {
		t.Fatalf("rejection lacks context: %+v", rej)
	}

	// The rejection must not have consumed a join slot: a legacy client and
	// a matching-codec client now fill MinClients and the session completes.
	var wg sync.WaitGroup
	var runErrs [2]error
	var clients []*Client
	for i, cs := range []codec.Spec{{}, {Quant: codec.Int8}} {
		client, err := DialCodec(addr, mk(i), 10*time.Second, cs)
		if err != nil {
			t.Fatalf("compatible client %d: %v", i, err)
		}
		clients = append(clients, client)
	}

	// The federation is full and its first round is waiting on the two
	// members: a late join must be refused within the handshake deadline.
	start := time.Now()
	_, err = DialCodec(addr, mk(0), 10*time.Second, codec.Spec{})
	var jr *JoinRejectedError
	if !errors.As(err, &jr) || jr.Code != RejectClosed {
		t.Fatalf("late join: got %v, want a RejectClosed *JoinRejectedError", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("late join answered after %v, beyond the handshake deadline", waited)
	}

	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *Client) {
			defer wg.Done()
			_, runErrs[i] = client.Run()
		}(i, client)
	}
	wg.Wait()
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("client %d run: %v", i, err)
		}
	}
}

// TestDialCodecValidatesSpec: an invalid spec fails client-side, before any
// connection is attempted.
func TestDialCodecValidatesSpec(t *testing.T) {
	_, err := DialCodec("127.0.0.1:1", &BenignTrainer{}, time.Second, codec.Spec{Quant: codec.Raw, EF: true})
	if err == nil {
		t.Fatal("expected validation error for EF on a lossless codec")
	}
}
