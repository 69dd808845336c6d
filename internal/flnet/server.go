package flnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// ServerConfig configures one federation (whether served alone by Server or
// multiplexed with others on a Host).
type ServerConfig struct {
	// MinClients is the population size the server waits for before
	// training starts (the paper's N).
	MinClients int
	// PerRound is K, the number of clients selected per round.
	PerRound int
	// Rounds is the number of federated rounds.
	Rounds int
	// RoundTimeout bounds the wait for a selected client's update; clients
	// that miss it are treated as offline for the round (cross-device FL
	// explicitly tolerates stragglers).
	RoundTimeout time.Duration
	// HandshakeTimeout is the Server's Host.HandshakeTimeout: it bounds the
	// hello read on each accepted connection, so a half-open or garbage
	// connection cannot hold the join phase for a full RoundTimeout.
	HandshakeTimeout time.Duration
	// AcceptTimeout, when positive, bounds the whole join phase: if
	// MinClients have not been admitted within it, Federation.Run (and so
	// Serve) fails instead of waiting forever. 0 waits forever.
	AcceptTimeout time.Duration
	// PendingJoins bounds the federation's queue of handshakes awaiting
	// admission — the admission control for join storms: joins beyond the
	// bound are rejected immediately with RejectAdmission (the client may
	// retry) instead of accumulating unbounded half-open state. 0 defaults
	// to max(MinClients, 16).
	PendingJoins int
	// EvalLimit caps test samples per evaluation (0 = all).
	EvalLimit int
	// Seed drives client selection and model initialization.
	Seed int64
	// CheckpointPath, when non-empty, atomically persists the global model
	// after every round so a restarted server can resume from disk: Serve
	// loads and validates an existing checkpoint at start and continues
	// from the round after the one it records. Co-hosted federations must
	// use distinct paths.
	CheckpointPath string
	// DatasetName and ModelName annotate checkpoints for load-side
	// validation.
	DatasetName, ModelName string
	// Scenario selects the engine's participation and aggregation axes
	// (client sampler, simulated churn, server optimizer, sync/async). The
	// zero value reproduces the legacy synchronous uniform round loop
	// bit-exactly. Simulated churn composes with the real RoundTimeout:
	// clients the model drops are never contacted, while real stragglers
	// are dropped by the socket deadline as before.
	Scenario fl.Scenario
	// Observer, when non-nil, receives every aggregation decision — the
	// forensics audit hook. Over sockets the server has no ground-truth
	// Malicious flags, so detection metrics reduce to decision auditing
	// unless the caller knows the deployment's adversaries.
	Observer fl.AggregationObserver
	// Codec is the canonical codec spec token (codec.Spec.String) the
	// server supports. A joining client must request either "" (dense
	// float64 updates, always accepted) or exactly this token; any
	// other request is rejected at the handshake with MsgJoinReject,
	// before round start. Compression is client-side: the server decodes
	// frames, it never fabricates them.
	Codec string
	// Metrics, when non-nil, registers this federation's instruments —
	// rounds, phases, codec bytes, joins, admission-queue depth and wait —
	// on the shared registry, labelled federation="<id>" so
	// co-hosted tenants stay distinguishable on one /metrics endpoint.
	// Pure observation: fixed-seed runs are bit-identical with or without.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records the federation's spans (rounds, phases,
	// join handshakes, queue waits) for post-run export.
	Tracer *telemetry.Tracer
}

// Validate reports configuration errors.
func (c *ServerConfig) Validate() error {
	switch {
	case c.MinClients <= 0:
		return errors.New("flnet: MinClients must be positive")
	case c.PerRound <= 0 || c.PerRound > c.MinClients:
		return fmt.Errorf("flnet: PerRound %d out of range (1..%d)", c.PerRound, c.MinClients)
	case c.Rounds <= 0:
		return errors.New("flnet: Rounds must be positive")
	case c.PendingJoins < 0:
		return errors.New("flnet: PendingJoins must not be negative")
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if spec, err := codec.ParseSpec(c.Codec); err != nil {
		return fmt.Errorf("flnet: codec: %w", err)
	} else if c.Codec != "" && c.Codec != spec.String() {
		return fmt.Errorf("flnet: codec %q is not canonical (want %q)", c.Codec, spec.String())
	}
	return c.Scenario.Validate()
}

// RoundReport describes one networked round.
type RoundReport struct {
	// Round is the round index.
	Round int
	// Selected is the number of clients the sampler picked.
	Selected int
	// Dropped and Straggled count the simulated participation losses (the
	// engine's churn model); clients lost to the real RoundTimeout show up
	// only as a lower Responded.
	Dropped, Straggled int
	// Responded is the number of selected clients that returned an update
	// before the deadline.
	Responded int
	// Aggregations is the number of server aggregations applied (async
	// buffer flushes; 0 or 1 in sync mode).
	Aggregations int
	// Accuracy is the post-aggregation test accuracy.
	Accuracy float64
}

// ServerResult summarizes a networked training run.
type ServerResult struct {
	// Rounds holds the per-round reports.
	Rounds []RoundReport
	// MaxAccuracy and FinalAccuracy mirror the simulator's metrics.
	MaxAccuracy, FinalAccuracy float64
	// FinalWeights is the final global weight vector.
	FinalWeights []float64
}

// session is one connected client.
type session struct {
	id   int
	conn *Conn
	// spec is the codec the client negotiated at join ("" = dense updates).
	// The server enforces it per update: a compressed session must send
	// frames of exactly this spec, a dense one plain weights.
	spec codec.Spec
	// sentGen is the broadcast generation of the last TrainRequest written
	// to this session (0 = none): what the client retains as its last global.
	sentGen uint64
	// broken marks a session whose byte stream lost sync; it is closed and
	// never contacted again.
	broken bool
	// hdr is the scratch for a per-session header (inlined-prev requests),
	// bufs for the buffers a request is written from.
	hdr  [headerSize]byte
	bufs [3][]byte
	// weights is the vector a dense session's updates decode into, frame the
	// one a compressed session's do.
	weights []float64
	frame   codec.Frame
}

// Server is the single-tenant deployment: a Host with one anonymous
// Federation, so its joins take the same accept loop, handshake reader,
// admission queue and typed rejects as a multi-tenant host's.
type Server struct {
	host *Host
	fed  *Federation
}

// NewServer builds a server with the given aggregation rule, model
// architecture and evaluation set.
func NewServer(cfg ServerConfig, agg fl.Aggregator, newModel func(rng *rand.Rand) *nn.Network, test *dataset.Dataset) (*Server, error) {
	fed, err := NewFederation("", cfg, agg, newModel, test)
	if err != nil {
		return nil, err
	}
	host := NewHost()
	host.HandshakeTimeout, host.Tracer = cfg.HandshakeTimeout, cfg.Tracer
	if err := host.Add(fed); err != nil {
		return nil, err
	}
	return &Server{host: host, fed: fed}, nil
}

// Serve accepts MinClients clients on lis, runs the configured rounds, and
// returns the result. The listener is not closed; the caller owns it. On a
// deadline-capable listener (TCP, Unix) Serve stops its accept loop before
// returning, by setting an expired deadline and clearing it once the loop
// has exited, so the listener can serve again. On any other listener the
// loop ends when the caller closes it, and a join it accepts before then
// gets a typed RejectClosed.
func (s *Server) Serve(lis net.Listener) (*ServerResult, error) {
	var loopErr error
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loopErr = s.host.Serve(lis)
	}()
	res, err := s.fed.run(loopDone)
	if d, ok := lis.(interface{ SetDeadline(time.Time) error }); ok && d.SetDeadline(time.Unix(1, 0)) == nil {
		<-loopDone
		_ = d.SetDeadline(time.Time{})
	}
	select {
	case <-loopDone:
		if err != nil && loopErr != nil {
			err = fmt.Errorf("%w (%w)", err, loopErr)
		}
	default:
	}
	return res, err
}

// readHello reads the Join that opens a freshly accepted connection. A peer
// that speaks another wire-format version gets a typed reject; a scanner,
// half-open dial or silent peer is closed without a reply. Both return nil.
func readHello(raw net.Conn, timeout time.Duration) (*Conn, *Envelope) {
	conn := NewConn(raw, timeout)
	hello, err := conn.Recv()
	if err == nil && hello.Type == MsgJoin {
		return conn, hello
	}
	var ve *VersionError
	if errors.As(err, &ve) {
		reject(conn, RejectVersion, ve.Error())
	} else {
		_ = conn.Close()
	}
	return nil, nil
}
