package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// Federation owns the per-tenant round state of one federated training run:
// the engine configuration, aggregation rule, codec negotiation, checkpoint
// path, evaluator and member sessions. A Host multiplexes federations over
// one listener, routed by the join handshake's Federation field; a Server is
// a Host with one anonymous Federation. Heavy tensor math from
// all federations in one process drains through the shared process-global
// worker pool (internal/tensor), so co-hosted tenants share one compute
// budget instead of oversubscribing the machine.
type Federation struct {
	id       string
	cfg      ServerConfig
	agg      fl.Aggregator
	newModel func(rng *rand.Rand) *nn.Network
	test     *dataset.Dataset
	// eval reuses its worker clones and scratch arenas across the
	// per-round evaluations.
	eval *fl.Evaluator
	// dim is the model dimension, resolved by prepare before any member is
	// admitted; the JoinAck announces it.
	dim int

	mu       sync.Mutex
	sessions []*session
	// closed marks a federation that admits no further members: it has
	// filled, or Run has returned.
	closed bool
	// filled is closed once MinClients members are admitted.
	filled chan struct{}
	// pending is the bounded admission queue for host-routed joins; Offer
	// rejects (typed) rather than blocking when it is full. Entries are
	// added under mu, so none arrives after close has drained it.
	pending chan pendingJoin
	// tel carries the federation's optional instruments (nil = disabled).
	tel *fedTelemetry
}

// pendingJoin is one handshake awaiting admission.
type pendingJoin struct {
	conn  *Conn
	hello *Envelope
	// enqueuedNs timestamps the queue entry for the wait histogram
	// (monotonic, telemetry.Nanos; 0 when telemetry is disabled).
	enqueuedNs int64
}

// NewFederation builds a federation with the given identity, configuration,
// aggregation rule, model architecture and evaluation set. The ID names the
// federation in join handshakes; a single-tenant Server uses "".
func NewFederation(id string, cfg ServerConfig, agg fl.Aggregator, newModel func(rng *rand.Rand) *nn.Network, test *dataset.Dataset) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if agg == nil {
		return nil, errors.New("flnet: aggregator must not be nil")
	}
	queue := cfg.PendingJoins
	if queue <= 0 {
		queue = cfg.MinClients
		if queue < 16 {
			queue = 16
		}
	}
	f := &Federation{
		id:       id,
		cfg:      cfg,
		agg:      agg,
		newModel: newModel,
		test:     test,
		filled:   make(chan struct{}),
		pending:  make(chan pendingJoin, queue),
		tel:      newFedTelemetry(cfg, id),
	}
	if test != nil {
		f.eval = fl.NewEvaluator(test, cfg.EvalLimit)
	}
	return f, nil
}

// ID returns the federation's join-handshake identity.
func (f *Federation) ID() string { return f.id }

// reject sends a typed join rejection and closes the connection.
func reject(conn *Conn, code, reason string) {
	_ = conn.Send(&Envelope{Type: MsgJoinReject, RejectCode: code, Err: reason})
	_ = conn.Close()
}

// admit runs the join handshake for one connection whose MsgJoin hello has
// been read: federation identity, admission state, codec negotiation. It
// sends JoinAck or a typed JoinReject itself and reports whether the
// connection became a member.
func (f *Federation) admit(conn *Conn, hello *Envelope) bool {
	sp := f.tel.handshake()
	ok := f.doAdmit(conn, hello)
	sp.End()
	f.tel.admitted(ok)
	return ok
}

func (f *Federation) doAdmit(conn *Conn, hello *Envelope) bool {
	// A named join must match; an anonymous one always targets this
	// federation (the host routed it here).
	if hello.Federation != "" && hello.Federation != f.id {
		reject(conn, RejectUnknownFederation, fmt.Sprintf("no federation %q here (serving %q)", hello.Federation, f.id))
		return false
	}
	// Codec negotiation: a client is served iff it requests no codec
	// (dense updates) or exactly the federation's codec. Anything
	// else is rejected here, with a typed reason, before round start —
	// a mismatched client must never burn rounds as a permanent
	// straggler. Rejected connections do not count toward MinClients.
	if hello.Codec != "" && hello.Codec != f.cfg.Codec {
		reject(conn, RejectCodec, fmt.Sprintf("codec %q not supported (federation: %q)", hello.Codec, f.cfg.Codec))
		return false
	}
	spec, err := codec.ParseSpec(hello.Codec)
	if err != nil {
		reject(conn, RejectCodec, err.Error())
		return false
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		reject(conn, RejectClosed, fmt.Sprintf("federation %q is not admitting members", f.id))
		return false
	}
	id := len(f.sessions)
	if err := conn.Send(&Envelope{Type: MsgJoinAck, ClientID: id, Dim: f.dim, Codec: hello.Codec, Federation: f.id}); err != nil {
		f.mu.Unlock()
		_ = conn.Close()
		return false
	}
	// The session survives the handshake: switch to the round deadline and
	// to the bodies the model dimension fixes.
	conn.Timeout, conn.dim = f.cfg.RoundTimeout, f.dim
	f.sessions = append(f.sessions, &session{id: id, conn: conn, spec: spec})
	if len(f.sessions) == f.cfg.MinClients {
		f.closed = true
		close(f.filled)
	}
	f.mu.Unlock()
	return true
}

// memberCount reports the number of admitted sessions.
func (f *Federation) memberCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}

// Offer hands a host-routed handshake to the federation's bounded admission
// queue. A full queue (join storm) or a federation past its join phase
// rejects immediately with a typed code instead of accumulating unbounded
// half-open state; Run admits queued joins in arrival order.
func (f *Federation) Offer(conn *Conn, hello *Envelope) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		reject(conn, RejectClosed, fmt.Sprintf("federation %q is not admitting members", f.id))
		return
	}
	j := pendingJoin{conn: conn, hello: hello, enqueuedNs: f.tel.enqueueNanos()}
	select {
	case f.pending <- j:
		f.mu.Unlock()
	default:
		f.mu.Unlock()
		f.tel.unqueued() // never entered the queue: depth back down, no wait sample
		f.tel.admitted(false)
		reject(conn, RejectAdmission, fmt.Sprintf("federation %q join queue is full; retry later", f.id))
	}
}

// close stops admission and rejects every handshake still queued.
func (f *Federation) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	for {
		select {
		case j := <-f.pending:
			f.tel.dequeued(j.enqueuedNs)
			f.tel.admitted(false)
			reject(j.conn, RejectClosed, fmt.Sprintf("federation %q is not admitting members", f.id))
		default:
			return
		}
	}
}

// prepare resolves the round loop's starting state before any client joins,
// so an incompatible checkpoint fails fast instead of after the handshakes:
// the engine, minus what the admitted sessions fix, and its initial weights
// (fresh, or a validated checkpoint's with its Resume).
func (f *Federation) prepare() (*fl.Engine, []float64, error) {
	global := f.newModel(rand.New(rand.NewSource(f.cfg.Seed)))
	weights := global.WeightVector()
	f.dim = len(weights)
	eng := &fl.Engine{
		PerRound:   f.cfg.PerRound,
		Rounds:     f.cfg.Rounds,
		Seed:       f.cfg.Seed,
		Scenario:   f.cfg.Scenario,
		Aggregator: f.agg,
		Observer:   f.cfg.Observer,
		Telemetry:  f.tel.engineTelemetry(),
	}
	cp, err := f.loadCheckpoint(len(weights))
	if err != nil {
		return nil, nil, err
	}
	if cp != nil {
		weights, eng.Resume = cp.Weights, &cp.Resume
		// Refused before anyone joins, with the engine's own error.
		if err := eng.CheckResume(); err != nil {
			return nil, nil, fmt.Errorf("flnet: federation %q: checkpoint %s: %w", f.id, f.cfg.CheckpointPath, err)
		}
	}
	if f.test != nil {
		eng.Evaluate = func(w []float64) (float64, error) {
			if err := global.SetWeightVector(w); err != nil {
				return 0, err
			}
			return f.eval.Accuracy(global, true), nil
		}
	}
	if f.cfg.CheckpointPath != "" {
		eng.OnRound = func(_ fl.RoundStats, w []float64, at persist.Resume) error {
			cp := &persist.Checkpoint{
				Dataset:    f.cfg.DatasetName,
				Model:      f.cfg.ModelName,
				Seed:       f.cfg.Seed,
				MinClients: f.cfg.MinClients,
				PerRound:   f.cfg.PerRound,
				Weights:    w,
				Resume:     at,
			}
			if err := persist.Save(f.cfg.CheckpointPath, cp); err != nil {
				return fmt.Errorf("flnet: round %d checkpoint: %w", at.Round, err)
			}
			return nil
		}
	}
	return eng, weights, nil
}

// Run waits for the federation to fill (admitting host-routed joins from the
// pending queue, bounded by AcceptTimeout when configured), runs the
// configured rounds, and returns the result. Call it once, after
// registering the federation with a Host.
func (f *Federation) Run() (*ServerResult, error) { return f.run(nil) }

// run is Run for a federation with an accept loop of its own: once loopDone
// closes, no member can join any more, so an unfilled join phase fails.
func (f *Federation) run(loopDone <-chan struct{}) (*ServerResult, error) {
	// However Run ends, the federation admits no one afterwards and no
	// handshake stays parked in its queue.
	defer f.close()
	eng, weights, err := f.prepare()
	if err != nil {
		return nil, err
	}
	var timeout <-chan time.Time
	if f.cfg.AcceptTimeout > 0 {
		timer := time.NewTimer(f.cfg.AcceptTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
joining:
	for {
		select {
		case <-f.filled:
			break joining
		case j := <-f.pending:
			f.tel.dequeued(j.enqueuedNs)
			f.admit(j.conn, j.hello)
		case <-timeout:
			return nil, fmt.Errorf("flnet: federation %q: join phase timed out after %v with %d/%d clients",
				f.id, f.cfg.AcceptTimeout, f.memberCount(), f.cfg.MinClients)
		case <-loopDone:
			return nil, fmt.Errorf("flnet: federation %q: accept loop ended with %d/%d clients",
				f.id, f.memberCount(), f.cfg.MinClients)
		}
	}
	f.close() // joins queued while the federation filled
	return f.runEngine(eng, weights)
}

// runEngine drives the prepared engine over the admitted sessions and
// broadcasts the final model.
func (f *Federation) runEngine(eng *fl.Engine, weights []float64) (*ServerResult, error) {
	f.mu.Lock()
	sessions := append([]*session(nil), f.sessions...)
	f.mu.Unlock()
	defer func() {
		for _, cl := range sessions {
			_ = cl.conn.Close()
		}
	}()

	tr := &netTransport{fed: f, sessions: sessions}
	eng.TotalClients, eng.Transport = len(sessions), tr
	engRes, finalWeights, err := eng.Run(weights)
	if err != nil {
		return nil, fmt.Errorf("flnet: %w", err)
	}
	res := &ServerResult{
		Rounds:        engRes.Rounds,
		MaxAccuracy:   engRes.MaxAccuracy,
		FinalAccuracy: engRes.FinalAccuracy,
		FinalWeights:  finalWeights,
	}

	// Graceful shutdown: hand every client the final model, encoded once.
	final := Envelope{Type: MsgDone, Weights: finalWeights}
	if msg, err := final.appendTo(tr.msg[:0]); err == nil {
		for _, cl := range sessions {
			if !cl.broken {
				_ = cl.conn.write(msg) // best effort; client may have vanished
			}
		}
	}
	return res, nil
}

// loadCheckpoint restores the latest checkpoint from CheckpointPath, if one
// exists, validating that it belongs to this federation's task and
// architecture before handing its weights to the round loop. A missing file
// means a fresh start; a present-but-incompatible one is an error, because
// silently training from mismatched weights would corrupt the federation.
func (f *Federation) loadCheckpoint(wantLen int) (*persist.Checkpoint, error) {
	if f.cfg.CheckpointPath == "" {
		return nil, nil
	}
	cp, err := persist.LoadFile(f.cfg.CheckpointPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("flnet: resume: %w", err)
	}
	switch {
	case cp.Dataset != f.cfg.DatasetName:
		return nil, fmt.Errorf("flnet: resume: checkpoint dataset %q, server dataset %q", cp.Dataset, f.cfg.DatasetName)
	case cp.Model != f.cfg.ModelName:
		return nil, fmt.Errorf("flnet: resume: checkpoint model %q, server model %q", cp.Model, f.cfg.ModelName)
	case len(cp.Weights) != wantLen:
		return nil, fmt.Errorf("flnet: resume: checkpoint has %d weights, model has %d", len(cp.Weights), wantLen)
	case len(cp.Prev) != wantLen:
		return nil, fmt.Errorf("flnet: resume: checkpoint has %d prev weights, model has %d", len(cp.Prev), wantLen)
	// A different seed or population would draw other clients than the
	// checkpointed rounds did: a silent hybrid of two runs.
	case cp.Seed != f.cfg.Seed:
		return nil, fmt.Errorf("flnet: resume: checkpoint seed %d, server seed %d", cp.Seed, f.cfg.Seed)
	case cp.MinClients != f.cfg.MinClients:
		return nil, fmt.Errorf("flnet: resume: checkpoint population %d, server %d", cp.MinClients, f.cfg.MinClients)
	case cp.PerRound != f.cfg.PerRound:
		return nil, fmt.Errorf("flnet: resume: checkpoint selects %d per round, server %d", cp.PerRound, f.cfg.PerRound)
	case cp.Round < 0 || cp.Round >= f.cfg.Rounds:
		return nil, fmt.Errorf("flnet: resume: checkpoint round %d outside 0..%d", cp.Round, f.cfg.Rounds-1)
	}
	return cp, nil
}

// netTransport exposes the socket round-trip as an engine Transport: the
// engine's responder set is contacted concurrently, and clients that miss
// the RoundTimeout are simply absent from the returned updates.
//
// The round's global is encoded once, header included, and the same bytes
// are written to every session. w(t−1) is not shipped when the session
// provably retains it: sent is the body of the last broadcast, and a session
// whose last request was that broadcast (sentGen == gen) is told PrevLast iff
// prev is bit-equal to it. Every other case — a session that sat out the
// last round, the first round after a checkpoint resume, an async step that
// flushed more than once — inlines prev, so clients see exactly the engine's
// prev whatever the schedule.
type netTransport struct {
	fed      *Federation
	sessions []*session
	// msg is this round's shared TrainRequest (header + global) and sent the
	// previous one; they swap every round. inline holds the encoded prev for
	// the sessions that need it, and gen counts broadcasts.
	msg, sent, inline []byte
	gen               uint64
	// replies holds one round's per-slot outcomes and updates the slice
	// Collect returns; both are reused every round (fl.Transport's lifetime
	// rule).
	replies []reply
	updates []fl.Update
}

// reply is one selection slot's outcome of a round.
type reply struct {
	update fl.Update
	ok     bool
}

// Collect implements fl.Transport: it sends TrainRequests to the selected
// sessions concurrently and gathers the updates that arrive before the
// deadline. Replies are returned in selection order, not arrival order — the
// same contract as the in-process simulator's transport — so aggregation
// sees a deterministic update sequence regardless of scheduling
// (floating-point summation is order-sensitive; arrival order would make
// co-tenant load leak into this federation's bits).
func (t *netTransport) Collect(round int, ids []int, global, prev []float64) ([]fl.Update, error) {
	t.msg, t.sent = t.sent, t.msg
	req := Envelope{Type: MsgTrainRequest, Round: round, Weights: global}
	msg, err := req.appendTo(t.msg[:0])
	if err != nil {
		return nil, err
	}
	t.msg = msg
	t.gen++
	body := msg[headerSize:]
	// shared is the prev mode the one shared message claims; PrevInline means
	// no session may be told to use a retained prev this round.
	shared := PrevInline
	switch {
	case equalF64s(body, prev):
		shared = PrevSame
	case len(t.sent) == len(msg) && equalF64s(t.sent[headerSize:], prev):
		shared = PrevLast
	}
	msg[3] = shared
	t.inline = t.inline[:0]

	replies := slices.Grow(t.replies[:0], len(ids))[:len(ids)]
	clear(replies)
	t.replies = replies
	var wg sync.WaitGroup
	for slot, idx := range ids {
		cl := t.sessions[idx]
		if cl.broken {
			continue
		}
		bufs := append(cl.bufs[:0], msg)
		if shared == PrevInline || (shared == PrevLast && cl.sentGen != t.gen-1) {
			if len(t.inline) == 0 {
				t.inline = appendF64s(t.inline, prev)
			}
			hdr := appendHeader(cl.hdr[:0], MsgTrainRequest, PrevInline, round, 0, 0, 2*len(body))
			bufs = append(cl.bufs[:0], hdr, body, t.inline)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[slot].update, replies[slot].ok = t.exchange(cl, round, bufs)
		}()
	}
	wg.Wait()
	t.updates = t.updates[:0]
	for _, r := range replies {
		if r.ok {
			t.updates = append(t.updates, r.update)
		}
	}
	return t.updates, nil
}

// equalF64s reports whether the encoded float64s in b are bit-equal to v.
func equalF64s(b []byte, v []float64) bool {
	if len(b) != 8*len(v) {
		return false
	}
	for i, x := range v {
		if binary.LittleEndian.Uint64(b[8*i:]) != math.Float64bits(x) {
			return false
		}
	}
	return true
}

// exchange runs one session's round trip and frames its Update. Any
// failure that leaves the byte stream out of sync — a failed or partial
// write, a deadline inside a message, a malformed header, an out-of-protocol
// message — breaks the session: it is closed and never contacted again. A
// deadline between messages (errQuiet) is a plain straggler.
func (t *netTransport) exchange(cl *session, round int, bufs [][]byte) (fl.Update, bool) {
	tel := t.fed.tel
	m, err := cl.roundTrip(round, t.gen, bufs)
	if err != nil {
		if !errors.Is(err, errQuiet) {
			cl.broken = true
			_ = cl.conn.Close()
			tel.sessionBroken()
		}
		return fl.Update{}, false
	}
	u, ok := cl.decodeUpdate(m)
	if ok {
		tel.bytesIn(m.n)
	} else {
		tel.updateRejected()
	}
	return u, ok
}

// roundTrip writes the round's TrainRequest (broadcast generation gen) and
// reads until the round's Update, or the deadline. Late replies to earlier
// rounds are dropped by their round number, so a client that straggled once
// answers again as soon as it catches up.
func (cl *session) roundTrip(round int, gen uint64, bufs [][]byte) (message, error) {
	if err := cl.conn.write(bufs...); err != nil {
		return message{}, err
	}
	cl.sentGen = gen
	if err := cl.conn.armRead(); err != nil {
		return message{}, err
	}
	for {
		m, err := cl.conn.next(cl)
		switch {
		case err != nil:
			return m, err
		case m.typ != MsgUpdate || m.round > round:
			return m, fmt.Errorf("flnet: unexpected %s for round %d in round %d", m.typ, m.round, round)
		case m.round == round:
			return m, nil
		}
	}
}

// into implements sink: every dense Update — this round's, a late one, or
// one decodeUpdate rejects — decodes into the session's own vector, so no
// body of the model's size ever lands in the connection's buffer.
func (cl *session) into(h header) (a, b []float64) {
	if h.typ != MsgUpdate {
		return nil, nil
	}
	if len(cl.weights) != cl.conn.dim {
		cl.weights = make([]float64, cl.conn.dim)
	}
	return cl.weights, nil
}

// decodeUpdate frames a read Update for the session. Bad framing — a foreign
// client ID, the wrong body kind, a frame that does not decode or carries
// another spec — fails closed: the client is absent for the round, like a
// straggler, and the session stays usable. Content (values, dimension,
// sample count) is the engine's intake's to judge (fl.Intake), as for every
// transport. The update references the session's vector or frame until the
// next round (fl.Transport's lifetime rule); the defense builds a frame-only
// update's dense vectors where it needs them (fl.Update.Vector).
func (cl *session) decodeUpdate(m message) (fl.Update, bool) {
	u := fl.Update{ClientID: cl.id, NumSamples: m.samples}
	if m.client != cl.id || (m.flags == UpdateFrame) != cl.spec.Enabled() {
		return u, false
	}
	if !cl.spec.Enabled() {
		u.Weights = cl.weights
		return u, true
	}
	if err := codec.DecodeWireInto(&cl.frame, m.body, cl.conn.dim); err != nil || cl.frame.Spec != cl.spec {
		return u, false
	}
	u.Frame = &cl.frame
	return u, true
}

// Host multiplexes several federations over one listener: every accepted
// connection's join handshake is read once, routed to the federation the
// hello names, and admitted through that federation's bounded queue. The
// federations' round loops run independently (each via Federation.Run);
// only the accept path and the process-wide tensor worker pool are shared.
type Host struct {
	// HandshakeTimeout bounds the hello read on each accepted connection
	// (0 = 5s), so a silent peer cannot wedge the shared accept path.
	HandshakeTimeout time.Duration
	// Tracer, when non-nil, records one hello-read-and-route span per
	// accepted connection on the "host" track, so slow or silent peers on
	// the shared accept path are visible in the trace.
	Tracer *telemetry.Tracer

	mu   sync.Mutex
	feds map[string]*Federation
	sole *Federation // set iff exactly one federation is registered
}

// NewHost returns an empty host.
func NewHost() *Host {
	return &Host{feds: make(map[string]*Federation)}
}

// Add registers a federation under its ID. IDs must be unique; a host with
// exactly one federation also serves clients whose hello names no
// federation at all.
func (h *Host) Add(f *Federation) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.feds[f.id]; dup {
		return fmt.Errorf("flnet: duplicate federation %q", f.id)
	}
	h.feds[f.id] = f
	if len(h.feds) == 1 {
		h.sole = f
	} else {
		h.sole = nil
	}
	return nil
}

// route resolves the federation a hello targets: the named one, or the sole
// registered federation when the hello is anonymous.
func (h *Host) route(name string) *Federation {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.feds[name]; ok {
		return f
	}
	if name == "" {
		return h.sole
	}
	return nil
}

// Serve accepts and routes connections until the listener closes or its
// deadline expires; both are a clean stop. Each handshake is read in its own
// goroutine under HandshakeTimeout, so a slow peer stalls neither the accept
// loop nor the other federations. The listener is not closed; the caller
// owns it.
func (h *Host) Serve(lis net.Listener) error {
	hsTimeout := h.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = 5 * time.Second
	}
	hostTrack := h.Tracer.Track("host")
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := lis.Accept()
		if err != nil {
			var ne net.Error
			if errors.Is(err, net.ErrClosed) || (errors.As(err, &ne) && ne.Timeout()) {
				return nil
			}
			return fmt.Errorf("flnet: host accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := h.Tracer.Start(hostTrack, "accept-handshake")
			conn, hello := readHello(raw, hsTimeout)
			if conn == nil {
				sp.End()
				return
			}
			fed := h.route(hello.Federation)
			if fed == nil {
				reject(conn, RejectUnknownFederation, fmt.Sprintf("no federation %q on this host", hello.Federation))
				sp.End()
				return
			}
			fed.Offer(conn, hello)
			sp.End()
		}()
	}
}
