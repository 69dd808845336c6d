package flnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
)

// Trainer produces the client's update for a round — the client-side
// counterpart of fl.Attack/fl.BenignClient, spanning both honest and
// adversarial behaviour.
type Trainer interface {
	// Train receives the round's global and previous-global weights and
	// returns the local weights plus the reported sample count. global and
	// prevGlobal are the client's receive buffers: they are valid — and must
	// be left unmodified — only for the duration of the call, and are
	// overwritten by the next request. A trainer that needs them later
	// copies them.
	Train(round int, global, prevGlobal []float64) (weights []float64, numSamples int, err error)
}

// BenignTrainer runs honest local SGD on a private shard (Eq. 1) as client
// id of a run seeded seed: round r trains on fl.TrainSeed's stream, the one
// the simulator's workers draw for the same client and round, so a client
// trains what the simulator trains and a restarted client retrains a round
// exactly.
type BenignTrainer struct {
	client *fl.BenignClient
	model  *nn.Network
	rng    *rand.Rand
	seed   int64
	id     int
}

var _ Trainer = (*BenignTrainer)(nil)

// NewBenignTrainer builds client id's honest behaviour over data[shard].
func NewBenignTrainer(data *dataset.Dataset, shard []int, newModel func(rng *rand.Rand) *nn.Network, lr float64, localEpochs, batchSize int, seed int64, id int) *BenignTrainer {
	rng := rand.New(rand.NewSource(seed))
	model := newModel(rng)
	return &BenignTrainer{
		client: fl.NewBenignClient(id, data, shard, model, lr, localEpochs, batchSize, rng),
		model:  model, rng: rng, seed: seed, id: id,
	}
}

// Train implements Trainer.
func (t *BenignTrainer) Train(round int, global, _ []float64) ([]float64, int, error) {
	t.rng.Seed(fl.TrainSeed(t.seed, round, t.id))
	u, err := t.client.TrainWith(global, t.model)
	if err != nil {
		return nil, 0, err
	}
	return u.Weights, u.NumSamples, nil
}

// AttackTrainer adapts any fl.Attack (including the data-free DFA variants)
// to the networked client loop as attacker id of a run seeded seed. Each
// request crafts one update with exactly the knowledge the wire gives it —
// the global model and the previous global model — from round r's craft
// stream and id's own noise, the draws the simulator's engine makes for id
// in round r whoever else the round selected, so a restarted attacker
// crafts a round exactly.
type AttackTrainer struct {
	attack     fl.Attack
	ctx        fl.AttackContext
	numSamples int
}

var _ Trainer = (*AttackTrainer)(nil)

// NewAttackTrainer wraps an attack; numSamples is the plausible n_i the
// adversary reports.
func NewAttackTrainer(attack fl.Attack, newModel func(rng *rand.Rand) *nn.Network, seed int64, id, numSamples int) *AttackTrainer {
	return &AttackTrainer{attack: attack, numSamples: numSamples, ctx: fl.AttackContext{
		NumAttackers: 1, AttackerIDs: []int{id}, Seed: seed, NumSelected: 1,
		NewModel: newModel, Rng: rand.New(rand.NewSource(0)),
	}}
}

// Train implements Trainer.
func (t *AttackTrainer) Train(round int, global, prevGlobal []float64) ([]float64, int, error) {
	ctx := &t.ctx
	ctx.Round, ctx.Global, ctx.PrevGlobal = round, global, prevGlobal
	ctx.Rng.Seed(fl.DrawSeed(ctx.Seed, fl.DrawCraft, round, 0))
	vecs, err := t.attack.Craft(ctx)
	if err != nil {
		return nil, 0, err
	}
	if len(vecs) != 1 {
		return nil, 0, fmt.Errorf("flnet: attack returned %d vectors, want 1", len(vecs))
	}
	return vecs[0], t.numSamples, nil
}

// JoinRejectedError is the typed join failure: the server refused the
// handshake before any round ran. Code is the machine-readable class — the
// requested codec is not served (RejectCodec), an unknown federation, a
// full pending-join queue (RejectAdmission — retry after a backoff), a
// federation past its join phase (RejectClosed), another wire version.
type JoinRejectedError struct {
	// Federation is the ID the client asked for.
	Federation string
	// Code is the machine-readable rejection class (Reject* constants).
	Code string
	// Reason is the server's explanation.
	Reason string
}

func (e *JoinRejectedError) Error() string {
	return fmt.Sprintf("flnet: join rejected: federation %q: %s: %s", e.Federation, e.Code, e.Reason)
}

// Client is one networked federation participant.
type Client struct {
	conn    *Conn
	trainer Trainer
	enc     *codec.Encoder
	// ID is the server-assigned identity, valid after Join.
	ID int

	// global and prev double-buffer the broadcast models: global holds the
	// last request's w(t), so when the next request elides w(t−1) (PrevLast)
	// the buffers swap and only the new global is decoded. held reports
	// whether a request has been received at all.
	global, prev []float64
	held         bool
	// upd is the frame each round's update is encoded into, and wire the
	// scratch its wire bytes are rendered into.
	upd  codec.Frame
	wire []byte
}

// DialCodec connects to the server and negotiates the given update codec at
// the join handshake. A server that does not serve the codec replies with a
// rejection before round start, surfaced as a *JoinRejectedError with
// Code RejectCodec.
func DialCodec(addr string, trainer Trainer, timeout time.Duration, spec codec.Spec) (*Client, error) {
	return DialFederation(addr, "", trainer, timeout, spec)
}

// DialFederation connects to a (possibly multi-tenant) host and joins the
// named federation, negotiating the given update codec at the handshake. An
// empty federation joins a single-tenant server, or the sole federation of
// a host. Every typed refusal (codec, unknown federation, admission
// control, closed, wire version) surfaces as *JoinRejectedError.
func DialFederation(addr, federation string, trainer Trainer, timeout time.Duration, spec codec.Spec) (*Client, error) {
	if trainer == nil {
		return nil, errors.New("flnet: trainer must not be nil")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("flnet: dial %s: %w", addr, err)
	}
	conn := NewConn(raw, timeout)
	if err := conn.Send(&Envelope{Type: MsgJoin, Codec: spec.String(), Federation: federation}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != MsgJoinAck {
		_ = conn.Close()
		return nil, joinError(ack, err, federation)
	}
	conn.dim = ack.Dim
	if !spec.Enabled() {
		// Every dense update is the same size: size the write buffer for it
		// while joining rather than at the first reply.
		conn.wbuf = make([]byte, 0, headerSize+8*ack.Dim)
	}
	buf := make([]float64, 2*ack.Dim)
	return &Client{
		conn: conn, trainer: trainer, enc: codec.NewEncoder(spec), ID: ack.ClientID,
		global: buf[:ack.Dim:ack.Dim], prev: buf[ack.Dim:],
	}, nil
}

// joinError types a handshake that did not end in a JoinAck.
func joinError(reply *Envelope, err error, federation string) error {
	var ve *VersionError
	switch {
	case errors.As(err, &ve):
		return &JoinRejectedError{Federation: federation, Code: RejectVersion, Reason: ve.Error()}
	case err != nil:
		return fmt.Errorf("flnet: join ack: %w", err)
	case reply.Type != MsgJoinReject:
		return fmt.Errorf("flnet: expected %s, got %s", MsgJoinAck, reply.Type)
	}
	return &JoinRejectedError{Federation: federation, Code: reply.RejectCode, Reason: reply.Err}
}

// into implements sink: a TrainRequest's body decodes into the double buffer
// — swapped first when it elides w(t−1), so c.global and c.prev hold w(t)
// and w(t−1) — and Done's into c.global.
func (c *Client) into(h header) (a, b []float64) {
	switch {
	case h.typ == MsgUpdate:
		return nil, nil
	case h.flags == PrevInline:
		return c.global, c.prev
	case h.flags == PrevLast && c.held:
		c.global, c.prev = c.prev, c.global
	}
	return c.global, nil
}

// recv reads the next message; a TrainRequest leaves w(t) and w(t−1) in
// c.global and c.prev, so a steady-state request allocates nothing.
func (c *Client) recv() (header, error) {
	if err := c.conn.armRead(); err != nil {
		return header{}, err
	}
	m, err := c.conn.next(c)
	if err != nil || m.typ != MsgTrainRequest {
		return m.header, err
	}
	switch {
	case m.flags == PrevLast && !c.held:
		return m.header, errors.New("flnet: server elided a previous global this client never received")
	case m.flags == PrevSame:
		copy(c.prev, c.global)
	}
	c.held = true
	return m.header, nil
}

// Run serves training requests until the server sends Done (returning the
// final global weights) or the connection fails.
func (c *Client) Run() ([]float64, error) {
	defer func() { _ = c.conn.Close() }()
	for {
		h, err := c.recv()
		if err != nil {
			return nil, fmt.Errorf("flnet: client %d: %w", c.ID, err)
		}
		switch h.typ {
		case MsgDone:
			// The session is over, so its receive buffer becomes the
			// caller's final model rather than being copied into one.
			return c.global, nil
		case MsgTrainRequest:
			weights, n, err := c.trainer.Train(h.round, c.global, c.prev)
			if err != nil {
				return nil, fmt.Errorf("flnet: client %d train: %w", c.ID, err)
			}
			resp := Envelope{Type: MsgUpdate, Round: h.round, ClientID: c.ID, NumSamples: n, Weights: weights}
			if c.enc != nil {
				// Compressed session: ship the codec frame instead of the
				// dense vector. The rounding stream is keyed by the
				// server-assigned ID and the round, so a re-run of the
				// same federation encodes identically.
				c.enc.EncodeInto(&c.upd, c.ID, h.round, c.global, weights)
				c.wire = codec.AppendWire(slices.Grow(c.wire[:0], codec.WireSize(&c.upd)), &c.upd)
				resp.Flags, resp.Weights, resp.Frame = UpdateFrame, nil, c.wire
			}
			if err := c.conn.Send(&resp); err != nil {
				return nil, fmt.Errorf("flnet: client %d reply: %w", c.ID, err)
			}
		default:
			return nil, fmt.Errorf("flnet: client %d: unexpected %s", c.ID, h.typ)
		}
	}
}
