package flnet

// Tests of what the version-2 wire format guarantees beyond framing: prev
// elision that is exact under every schedule, a broadcast encoded once,
// allocation-free receives, update decodes and sends, a client refusing an
// elided prev it never held, straggler recovery, fail-closed dense updates,
// a stream kept in sync past a rejected update and a typed reject for other
// wire versions.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// tinyModel is a 15-weight model: wire tests exercise framing, not learning.
func tinyModel(rng *rand.Rand) *nn.Network { return nn.NewNetwork(nn.NewDense(rng, 4, 3)) }

func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// federate serves cfg on loopback to one dense client per trainer (client
// IDs follow trainer order) and returns the server's result. Client errors
// are expected in tests that break sessions, so they are not fatal.
func federate(t *testing.T, cfg ServerConfig, trainers []Trainer) *ServerResult {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(cfg, defense.FedAvg{}, tinyModel, nil)
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
	for _, tr := range trainers {
		cl, err := DialCodec(lis.Addr().String(), tr, 10*time.Second, codec.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Run()
		}()
	}
	o := <-done
	wg.Wait()
	if o.err != nil {
		t.Fatalf("server: %v", o.err)
	}
	return o.res
}

// recordingAttack is a data-free adversary that records the bits of every
// prevGlobal the wire hands it, and answers with the global nudged by a
// per-client step so consecutive globals always differ.
type recordingAttack struct {
	step float64
	prev map[int][]uint64 // round -> bits of the prevGlobal seen
}

func (a *recordingAttack) Name() string { return "record" }

func (a *recordingAttack) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	a.prev[ctx.Round] = f64bits(ctx.PrevGlobal)
	out := make([]float64, len(ctx.Global))
	for i, g := range ctx.Global {
		out[i] = g + a.step*float64(i+1)
	}
	return [][]float64{out}, nil
}

// enginePrev observes the engine: after an aggregation in round r, the
// engine's prev is the global that aggregation started from.
type enginePrev struct {
	after map[int][]uint64 // round -> bits of prev once the round is over
}

func (p *enginePrev) ObserveAggregation(round int, global []float64, updates []fl.Update, _ fl.Selection) {
	if len(updates) > 0 {
		p.after[round] = f64bits(global)
	}
}

// at returns the engine's prev while round runs.
func (p *enginePrev) at(round int, initial []uint64) []uint64 {
	for r := round - 1; r >= 0; r-- {
		if b, ok := p.after[r]; ok {
			return b
		}
	}
	return initial
}

// TestPrevElisionMatchesEnginePrev is the equivalence test for not shipping
// PrevWeights: whatever the schedule — partial participation, the first
// round after a checkpoint resume, async steps that flush several times —
// every client must see exactly the bits of the engine's prev for the round.
func TestPrevElisionMatchesEnginePrev(t *testing.T) {
	const clients = 5
	run := func(t *testing.T, cfg ServerConfig, lives ...int) {
		cfg.MinClients, cfg.RoundTimeout, cfg.Seed = clients, 10*time.Second, 9
		engine := &enginePrev{after: map[int][]uint64{}}
		cfg.Observer = engine
		attacks := make([]*recordingAttack, clients)
		for i := range attacks {
			attacks[i] = &recordingAttack{step: 1e-3 * float64(i+1), prev: map[int][]uint64{}}
		}
		for _, rounds := range lives {
			cfg.Rounds = rounds
			trainers := make([]Trainer, clients)
			for i, a := range attacks {
				trainers[i] = NewAttackTrainer(a, tinyModel, int64(i), i, 10)
			}
			federate(t, cfg, trainers)
		}
		initial := f64bits(tinyModel(rand.New(rand.NewSource(cfg.Seed))).WeightVector())
		seen := 0
		for id, a := range attacks {
			for round, got := range a.prev {
				seen++
				if want := engine.at(round, initial); !slices.Equal(got, want) {
					t.Errorf("client %d round %d: prevGlobal differs from the engine's prev", id, round)
				}
			}
		}
		if want := cfg.PerRound * cfg.Rounds; seen != want {
			t.Errorf("recorded %d client-rounds, want %d", seen, want)
		}
	}
	t.Run("partial-participation", func(t *testing.T) {
		run(t, ServerConfig{PerRound: 2}, 8)
	})
	t.Run("checkpoint-resume", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "fed.ckpt")
		run(t, ServerConfig{PerRound: 3, CheckpointPath: ckpt}, 3, 6)
	})
	t.Run("async-multi-flush", func(t *testing.T) {
		run(t, ServerConfig{PerRound: 5, Scenario: fl.Scenario{Async: &fl.AsyncConfig{Buffer: 2, MaxDelay: 1}}}, 6)
	})
}

// scriptConn is the server's end of a scripted session: it records every
// Write, and once a whole TrainRequest has been written it queues the
// matching dense Update for the next Reads.
type scriptConn struct {
	byteConn
	id, dim int
	pending int // bytes of the current request still to be written
	round   int
	writes  []scriptWrite
	reply   bytes.Buffer
}

type scriptWrite struct {
	first *byte // address of the write's first byte: identity of the buffer
	body  *byte // address just past the header, when the write carries both
	flags uint8 // header flags, when the write starts a message
	n     int
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.reply.Read(p) }

func (c *scriptConn) Write(p []byte) (int, error) {
	w := scriptWrite{first: &p[0], n: len(p)}
	if c.pending == 0 {
		w.flags = p[3]
		if len(p) > headerSize {
			w.body = &p[headerSize]
		}
		c.round = int(binary.LittleEndian.Uint32(p[4:]))
		c.pending = headerSize + int(binary.LittleEndian.Uint32(p[16:]))
	}
	c.writes = append(c.writes, w)
	if c.pending -= len(p); c.pending == 0 {
		up := Envelope{Type: MsgUpdate, Round: c.round, ClientID: c.id, NumSamples: 1, Weights: make([]float64, c.dim)}
		msg, _ := up.appendTo(nil)
		c.reply.Write(msg)
	}
	return len(p), nil
}

// TestBroadcastEncodedOncePerRound drives the transport over scripted
// sessions and checks, by buffer identity, that a round's global is encoded
// once and those same bytes go to every session — in one Write when prev is
// elided — and that prev is inlined exactly for the sessions that cannot
// have retained it.
func TestBroadcastEncodedOncePerRound(t *testing.T) {
	const dim = 6
	conns := make([]*scriptConn, 3)
	tr := &netTransport{fed: &Federation{}}
	for i := range conns {
		conns[i] = &scriptConn{id: i, dim: dim}
		conn := NewConn(conns[i], time.Second)
		conn.dim = dim
		tr.sessions = append(tr.sessions, &session{id: i, conn: conn})
	}
	vec := func(x float64) []float64 { return slices.Repeat([]float64{x}, dim) }
	rounds := []struct {
		ids          []int
		global, prev []float64
		flags        []uint8 // per id in ids
	}{
		{[]int{0, 1, 2}, vec(0), vec(0), []uint8{PrevSame, PrevSame, PrevSame}},       // fresh start
		{[]int{0, 1}, vec(1), vec(0), []uint8{PrevLast, PrevLast}},                    // the common case
		{[]int{0, 1, 2}, vec(2), vec(1), []uint8{PrevLast, PrevLast, PrevInline}},     // 2 sat round 1 out
		{[]int{0, 1, 2}, vec(3), vec(9), []uint8{PrevInline, PrevInline, PrevInline}}, // prev is not the last broadcast
	}
	for round, r := range rounds {
		for _, c := range conns {
			c.writes = nil
		}
		updates, err := tr.Collect(round, r.ids, r.global, r.prev)
		if err != nil || len(updates) != len(r.ids) {
			t.Fatalf("round %d: %d updates, err %v", round, len(updates), err)
		}
		var body, inlined *byte
		for slot, id := range r.ids {
			w := conns[id].writes
			if w[0].flags != r.flags[slot] {
				t.Errorf("round %d session %d: prev mode %d, want %d", round, id, w[0].flags, r.flags[slot])
			}
			// The global's bytes: behind the header of the one shared message,
			// or the second buffer of an inlined-prev request.
			got := w[0].body
			if r.flags[slot] == PrevInline {
				if len(w) != 3 {
					t.Fatalf("round %d session %d: %d writes for an inlined request, want header+global+prev", round, id, len(w))
				}
				got = w[1].first
				if inlined == nil {
					inlined = w[2].first
				}
				if w[2].first != inlined {
					t.Errorf("round %d session %d: prev was encoded again", round, id)
				}
			} else if len(w) != 1 || w[0].n != headerSize+8*dim {
				t.Errorf("round %d session %d: elided request took %d writes", round, id, len(w))
			}
			if body == nil {
				body = got
			}
			if got != body {
				t.Errorf("round %d session %d: global was encoded again", round, id)
			}
		}
	}
}

// loopConn replays one message forever.
type loopConn struct {
	byteConn
	msg []byte
	off int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.msg[c.off:])
	c.off = (c.off + n) % len(c.msg)
	return n, nil
}

// TestClientRecvSteadyStateZeroAlloc: once the double buffer and the read
// buffer exist, receiving a TrainRequest allocates nothing.
func TestClientRecvSteadyStateZeroAlloc(t *testing.T) {
	const dim = 10010
	global := make([]float64, dim)
	for i := range global {
		global[i] = float64(i) * 0.5
	}
	req := Envelope{Type: MsgTrainRequest, Flags: PrevLast, Round: 3, Weights: global}
	msg, err := req.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&loopConn{msg: msg}, time.Second)
	conn.dim = dim
	c := &Client{conn: conn, global: make([]float64, dim), prev: make([]float64, dim), held: true}
	recv := func() {
		if h, err := c.recv(); err != nil || h.round != 3 {
			t.Fatalf("recv: %+v, %v", h, err)
		}
	}
	recv() // sizes the read buffer
	if allocs := testing.AllocsPerRun(50, recv); allocs != 0 {
		t.Fatalf("steady-state client recv allocates %v times per request, want 0", allocs)
	}
	if !slices.Equal(c.global, global) || !slices.Equal(c.prev, global) {
		t.Fatal("double buffer does not hold the last two globals")
	}
}

// TestClientRefusesUnheldPrev: a client whose first request elides w(t−1)
// fails, and the request's body has been consumed all the same.
func TestClientRefusesUnheldPrev(t *testing.T) {
	const dim = 8
	req := Envelope{Type: MsgTrainRequest, Flags: PrevLast, Weights: make([]float64, dim)}
	msg, err := req.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(msg)
	conn := NewConn(&byteConn{r: r}, time.Second)
	conn.dim = dim
	c := &Client{conn: conn, global: make([]float64, dim), prev: make([]float64, dim)}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "server elided a previous global this client never received") {
		t.Fatalf("Run: %v, want the elided-prev refusal", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes of the request left unread", r.Len())
	}
}

// TestDenseUpdateDecodeSteadyStateZeroAlloc: once a dense session's read
// buffer and update vector exist, reading and decoding an Update allocates
// nothing, and the update is the session's own vector.
func TestDenseUpdateDecodeSteadyStateZeroAlloc(t *testing.T) {
	const dim = 10010
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = float64(i) * 0.25
	}
	upd := Envelope{Type: MsgUpdate, Round: 2, ClientID: 1, NumSamples: 32, Weights: weights}
	msg, err := upd.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&loopConn{msg: msg}, time.Second)
	conn.dim = dim
	cl := &session{id: 1, conn: conn}
	var u fl.Update
	decode := func() {
		m, err := cl.conn.next(cl)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if u, ok = cl.decodeUpdate(m); !ok {
			t.Fatal("a well-formed dense update was rejected")
		}
	}
	decode() // sizes the read buffer and the session's vector
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("steady-state dense update decode allocates %v times per update, want 0", allocs)
	}
	if !slices.Equal(u.Weights, weights) || &u.Weights[0] != &cl.weights[0] || u.NumSamples != 32 {
		t.Fatal("the update is not the session's vector holding the sent weights")
	}
}

// TestFrameUpdateDecodeSteadyStateZeroAlloc: once a compressed session's
// read buffer and frame exist, reading and decoding an Update allocates
// nothing, and the update's frame is the session's own.
func TestFrameUpdateDecodeSteadyStateZeroAlloc(t *testing.T) {
	const dim = 10010
	spec := codec.Spec{Quant: codec.Int8, TopK: 0.1, EF: true}
	global, weights := make([]float64, dim), make([]float64, dim)
	for i := range weights {
		weights[i] = math.Sin(float64(i))
	}
	sent := codec.NewEncoder(spec).Encode(1, 2, global, weights)
	upd := Envelope{Type: MsgUpdate, Flags: UpdateFrame, Round: 2, ClientID: 1, NumSamples: 32, Frame: codec.EncodeWire(sent)}
	msg, err := upd.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&loopConn{msg: msg}, time.Second)
	conn.dim = dim
	cl := &session{id: 1, conn: conn, spec: spec}
	var u fl.Update
	decode := func() {
		m, err := cl.conn.next(cl)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if u, ok = cl.decodeUpdate(m); !ok {
			t.Fatal("a well-formed frame update was rejected")
		}
	}
	decode() // sizes the read buffer and the session's frame
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("steady-state frame update decode allocates %v times per update, want 0", allocs)
	}
	if u.Frame != &cl.frame || u.Weights != nil || !reflect.DeepEqual(u.Frame, sent) {
		t.Fatal("the update is not the session's frame holding the sent frame")
	}
}

// TestSendSteadyStateZeroAlloc: once its write buffer holds a message of the
// session's size, sending another over a real socket allocates nothing —
// neither the vectored write's buffer list nor a regrown buffer.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		peer, err := lis.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		_, _ = io.Copy(io.Discard, peer)
	}()
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw, 5*time.Second)
	upd := Envelope{Type: MsgUpdate, Flags: UpdateFrame, Round: 1, ClientID: 2, NumSamples: 32, Frame: make([]byte, 5000)}
	send := func() {
		if err := conn.Send(&upd); err != nil {
			t.Fatal(err)
		}
	}
	send()
	allocs := testing.AllocsPerRun(50, send)
	_ = conn.Close()
	<-drained
	if allocs != 0 {
		t.Fatalf("a steady-state Send allocates %v times per message, want 0", allocs)
	}
}

// funcTrainer adapts a function to Trainer.
type funcTrainer func(round int, global []float64) ([]float64, int)

func (f funcTrainer) Train(round int, global, _ []float64) ([]float64, int, error) {
	w, n := f(round, global)
	return w, n, nil
}

func echo(_ int, global []float64) ([]float64, int) { return global, 1 }

func responded(res *ServerResult) []int {
	var out []int
	for _, r := range res.Rounds {
		out = append(out, r.Responded)
	}
	return out
}

// TestSlowClientRecoversAfterStraggling: a client that misses one deadline
// and then answers promptly must count in every later round. Its late reply
// to the missed round arrives in front of the next one and is discarded by
// its round number instead of shadowing every reply after it.
func TestSlowClientRecoversAfterStraggling(t *testing.T) {
	reg := telemetry.NewRegistry()
	slow := funcTrainer(func(round int, global []float64) ([]float64, int) {
		if round == 0 {
			time.Sleep(1500 * time.Millisecond) // past round 0's deadline, inside round 1's
		}
		return global, 1
	})
	res := federate(t, ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 4, RoundTimeout: time.Second, Seed: 3, Metrics: reg,
	}, []Trainer{funcTrainer(echo), slow})
	if got, want := responded(res), []int{1, 2, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("responders per round %v, want %v", got, want)
	}
	if n := reg.Counter("flnet_sessions_broken_total", "").Value(); n != 0 {
		t.Fatalf("%d sessions broken, want 0: a deadline between messages keeps the session", n)
	}
}

// TestDenseUpdateFailsClosed: a dense update with non-finite weights or a
// negative sample count never reaches the aggregator. It decodes, and the
// engine's intake refuses it: the client is absent for that round only, and
// the rejection is counted under its reason, not as a framing reject.
func TestDenseUpdateFailsClosed(t *testing.T) {
	reg := telemetry.NewRegistry()
	hostile := funcTrainer(func(round int, global []float64) ([]float64, int) {
		w := slices.Clone(global)
		switch round {
		case 0:
			w[3] = math.NaN()
		case 1:
			w[len(w)-1] = math.Inf(-1)
		case 2:
			return w, -5
		}
		return w, 1
	})
	res := federate(t, ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 4, RoundTimeout: 10 * time.Second, Seed: 3, Metrics: reg,
	}, []Trainer{funcTrainer(echo), hostile})
	if got, want := responded(res), []int{1, 1, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("responders per round %v, want %v", got, want)
	}
	for reason, want := range map[telemetry.IntakeReason]int64{
		telemetry.IntakeNonFinite: 2, telemetry.IntakeSamples: 1, telemetry.IntakeDimension: 0,
	} {
		if n := reg.Counter("fl_updates_rejected_total", "", telemetry.Label{Key: "reason", Value: reason.Name()}).Value(); n != want {
			t.Errorf("%d updates rejected as %s, want %d", n, reason.Name(), want)
		}
	}
	if n := reg.Counter("flnet_updates_rejected_total", "").Value(); n != 0 {
		t.Errorf("%d well-framed updates counted as framing rejects, want 0", n)
	}
	for i, w := range res.FinalWeights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("final weight %d is %v: a hostile update was aggregated", i, w)
		}
	}
}

// TestRejectedUpdateKeepsStreamInSync: an update rejected on its header —
// a foreign client ID, a frame from a dense session — or by the engine's
// intake after it decoded — a negative sample count — still has its body
// consumed, so the session's next update decodes.
func TestRejectedUpdateKeepsStreamInSync(t *testing.T) {
	const dim = 700
	good := make([]float64, dim)
	for i := range good {
		good[i] = float64(i) / 7
	}
	for name, bad := range map[string]Envelope{
		"foreign client":   {Type: MsgUpdate, ClientID: 2, NumSamples: 1, Weights: make([]float64, dim)},
		"negative samples": {Type: MsgUpdate, ClientID: 1, NumSamples: -3, Weights: make([]float64, dim)},
		"frame body":       {Type: MsgUpdate, Flags: UpdateFrame, ClientID: 1, NumSamples: 1, Frame: make([]byte, 99)},
	} {
		// A negative count is content: it decodes, and intake refuses it.
		decodes := bad.NumSamples < 0
		t.Run(name, func(t *testing.T) {
			msg, err := bad.appendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			next := Envelope{Type: MsgUpdate, ClientID: 1, NumSamples: 4, Weights: good}
			if msg, err = next.appendTo(msg); err != nil {
				t.Fatal(err)
			}
			conn := NewConn(&loopConn{msg: msg}, time.Second)
			conn.dim = dim
			cl := &session{id: 1, conn: conn}
			for i, wantOK := range []bool{false, true} {
				m, err := cl.conn.next(cl)
				if err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				u, ok := cl.decodeUpdate(m)
				if ok != (wantOK || decodes) {
					t.Fatalf("update %d: decoded %v, want %v", i, ok, wantOK || decodes)
				}
				if !ok {
					continue
				}
				if reason, admitted := fl.Intake(u, dim); admitted != wantOK || !admitted && reason != telemetry.IntakeSamples {
					t.Fatalf("update %d: intake (%s, %v), want admitted %v or refused as %s", i, reason.Name(), admitted, wantOK, telemetry.IntakeSamples.Name())
				}
				if wantOK && !slices.Equal(u.Weights, good) {
					t.Fatal("the update after a rejected one decoded to other weights")
				}
			}
		})
	}
}

// TestFramingRejectKeepsSession: a well-framed update that decodeUpdate
// refuses — here one under another client's ID — is counted as a framing
// reject, leaves its round without that client, and does not break the
// session: the same peer counts in every later round.
func TestFramingRejectKeepsSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 3, RoundTimeout: 10 * time.Second, Seed: 3, Metrics: reg,
	}, defense.FedAvg{}, tinyModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *ServerResult, 1)
	go func() {
		res, err := srv.Serve(lis)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	addr := lis.Addr().String()
	good, err := DialCodec(addr, funcTrainer(echo), 10*time.Second, codec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = good.Run() }()

	// The misframing peer answers round 0 under a foreign ID, then every
	// later round as itself.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, 5*time.Second)
	if err := conn.Send(&Envelope{Type: MsgJoin}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	conn.dim = ack.Dim
	for round := range 3 {
		req, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		id := ack.ClientID
		if round == 0 {
			id += 7
		}
		if err := conn.Send(&Envelope{Type: MsgUpdate, Round: req.Round, ClientID: id, NumSamples: 1, Weights: req.Weights}); err != nil {
			t.Fatal(err)
		}
	}

	res := <-done
	if got, want := responded(res), []int{1, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("responders per round %v, want %v", got, want)
	}
	if n := reg.Counter("flnet_updates_rejected_total", "").Value(); n != 1 {
		t.Errorf("%d framing rejects counted, want 1", n)
	}
	if n := reg.Counter("flnet_sessions_broken_total", "").Value(); n != 0 {
		t.Errorf("%d sessions broken, want 0", n)
	}
}

// TestDeadlineInsideMessageBreaksSession: a reply whose body stalls past the
// deadline leaves the stream out of sync, so the session is closed, counted
// and never waited for again.
func TestDeadlineInsideMessageBreaksSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(ServerConfig{
		MinClients: 2, PerRound: 2, Rounds: 3, RoundTimeout: 500 * time.Millisecond, Seed: 3, Metrics: reg,
	}, defense.FedAvg{}, tinyModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *ServerResult, 1)
	go func() {
		res, err := srv.Serve(lis)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	addr := lis.Addr().String()
	good, err := DialCodec(addr, funcTrainer(echo), 10*time.Second, codec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = good.Run() }()

	// The stalling peer: join, read round 0's request, answer with a header
	// that promises a full update and only half of its body.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, 5*time.Second)
	if err := conn.Send(&Envelope{Type: MsgJoin}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	conn.dim = ack.Dim
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	up := Envelope{Type: MsgUpdate, ClientID: ack.ClientID, NumSamples: 1, Weights: make([]float64, ack.Dim)}
	msg, _ := up.appendTo(nil)
	if _, err := raw.Write(msg[:headerSize+4*ack.Dim]); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res := <-done
	if got, want := responded(res), []int{1, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("responders per round %v, want %v", got, want)
	}
	if n := reg.Counter("flnet_sessions_broken_total", "").Value(); n != 1 {
		t.Fatalf("%d sessions broken, want 1", n)
	}
	// Only round 0 waits out the deadline; a session that stayed selected
	// and silent would cost one RoundTimeout per round.
	if took := time.Since(start); took > 1200*time.Millisecond {
		t.Fatalf("federation took %v: the broken session was waited for again", took)
	}
}

// TestOtherWireVersion: a peer whose header carries the protocol magic but
// another version gets a typed reject from the server, and a client facing
// such a server reports a typed join rejection — never a bare decode error.
func TestOtherWireVersion(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := NewServer(ServerConfig{MinClients: 1, PerRound: 1, Rounds: 1, Seed: 3}, defense.FedAvg{}, tinyModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(lis)
		done <- err
	}()
	addr := lis.Addr().String()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	join := Envelope{Type: MsgJoin}
	hello, _ := join.appendTo(nil)
	hello[1] = wireVersion + 1
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	reply, err := NewConn(raw, 5*time.Second).Recv()
	if err != nil || reply.Type != MsgJoinReject || reply.RejectCode != RejectVersion {
		t.Fatalf("server answered %+v, %v; want a %s reject", reply, err, RejectVersion)
	}
	_ = raw.Close()

	// The rejected peer did not take the seat: a real client still completes.
	cl, err := DialCodec(addr, funcTrainer(echo), 5*time.Second, codec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Client side: a server of another version answers the join.
	other, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	go func() {
		c, err := other.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = NewConn(c, 5*time.Second).Recv()
		ack := Envelope{Type: MsgJoinAck, Dim: 15}
		msg, _ := ack.appendTo(nil)
		msg[1] = wireVersion + 1
		_, _ = c.Write(msg)
	}()
	_, err = DialCodec(other.Addr().String(), funcTrainer(echo), 5*time.Second, codec.Spec{})
	var jr *JoinRejectedError
	if !errors.As(err, &jr) || jr.Code != RejectVersion {
		t.Fatalf("dial against another wire version: %v, want a %s JoinRejectedError", err, RejectVersion)
	}
	// The message names the federation, the code and the reason.
	want := fmt.Sprintf(`flnet: join rejected: federation "": version: flnet: peer speaks wire version %d, this build speaks %d`,
		wireVersion+1, wireVersion)
	if jr.Error() != want {
		t.Errorf("join rejection reads %q, want %q", jr.Error(), want)
	}
}
