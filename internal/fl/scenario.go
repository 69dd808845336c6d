package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Scenario bundles the pluggable participation and aggregation axes of the
// round engine. The zero value is the paper's fixed federation shape:
// uniform K-of-N selection, full participation, plain synchronous
// FedAvg-style application of the aggregate.
type Scenario struct {
	// Sampler selects the participating clients each round; nil means
	// uniform K-of-N selection (K = the engine's PerRound).
	Sampler ClientSampler
	// Participation models per-selection churn; nil means every selected
	// client responds.
	Participation ParticipationModel
	// ServerOpt post-processes the robust aggregate into the next global
	// model; nil means plain application (the aggregate becomes the global).
	ServerOpt ServerOptimizer
	// Async, when non-nil, switches the engine to FedBuff-style buffered
	// aggregation: updates arrive with simulated delays and the server
	// aggregates whenever Buffer of them are queued, discounting stale
	// updates. Nil means the legacy synchronous round structure.
	Async *AsyncConfig
}

// ResumeError refuses a checkpoint resume (a non-nil Engine.Resume) of a run
// that carries state from round to round which no checkpoint holds: a
// resumed run would silently diverge from the uninterrupted one.
type ResumeError struct {
	// Component names the state's owner: "async", "fedavgm", "foolsgold".
	Component string
	// State is what the checkpoint lacks.
	State string
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("fl: cannot resume a %s run mid-run: its %s is not checkpointed", e.Component, e.State)
}

// RoundState is a server optimizer or aggregator that may carry state from
// round to round which no checkpoint holds: CarriedState refuses a resume
// with a *ResumeError naming it, or returns nil (a rule composed of others
// that carry none).
type RoundState interface {
	CarriedState() error
}

// RefuseResume returns the first of parts' CarriedState refusals, or nil.
func RefuseResume(parts ...any) error {
	for _, p := range parts {
		if s, ok := p.(RoundState); ok {
			if err := s.CarriedState(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate reports scenario configuration errors.
func (sc Scenario) Validate() error {
	type validator interface{ Validate() error }
	for _, v := range []interface{}{sc.Sampler, sc.Participation, sc.ServerOpt} {
		if val, ok := v.(validator); ok {
			if err := val.Validate(); err != nil {
				return err
			}
		}
	}
	if sc.Async != nil {
		if sc.Async.Buffer <= 0 {
			return errors.New("fl: async Buffer must be positive")
		}
		if sc.Async.MaxDelay < 0 {
			return errors.New("fl: async MaxDelay must be non-negative")
		}
	}
	return nil
}

// ClientSampler selects the client IDs that participate in one round.
// Implementations must be deterministic functions of the provided RNG,
// which the engine seeds from (seed, round), so identical seeds reproduce
// identical participation traces.
type ClientSampler interface {
	// Sample returns the participating client IDs (subset of 0..total-1).
	// An empty return is legal and yields a round with no responders.
	Sample(rng *rand.Rand, round, total int) []int
}

// UniformSampler selects K of N clients uniformly without replacement: the
// first K of one Perm(total).
type UniformSampler struct {
	// K is the number of clients selected per round.
	K int
}

// Validate reports configuration errors.
func (s UniformSampler) Validate() error {
	if s.K <= 0 {
		return errors.New("fl: uniform sampler K must be positive")
	}
	return nil
}

// Sample implements ClientSampler.
func (s UniformSampler) Sample(rng *rand.Rand, _, total int) []int {
	k := s.K
	if k > total {
		k = total
	}
	return rng.Perm(total)[:k]
}

// BernoulliSampler implements Poisson-style per-client sampling: every
// client independently participates with probability P, the cross-device
// model of production federations (and of DP-FL analyses). The number of
// participants varies round to round and may be zero.
type BernoulliSampler struct {
	// P is the per-client participation probability.
	P float64
}

// Validate reports configuration errors.
func (s BernoulliSampler) Validate() error {
	if !(s.P > 0 && s.P <= 1) {
		return fmt.Errorf("fl: bernoulli sampler P %v outside (0, 1]", s.P)
	}
	return nil
}

// Sample implements ClientSampler.
func (s BernoulliSampler) Sample(rng *rand.Rand, _, total int) []int {
	var ids []int
	for i := 0; i < total; i++ {
		if rng.Float64() < s.P {
			ids = append(ids, i)
		}
	}
	return ids
}

// WeightedSampler selects K of N clients without replacement with
// probability proportional to per-client weights (typically shard sizes, so
// data-rich clients are contacted more often). Clients without a weight
// entry count as weight 1.
type WeightedSampler struct {
	// K is the number of clients selected per round.
	K int
	// Weights holds one non-negative weight per client.
	Weights []float64
}

// Validate reports configuration errors.
func (s WeightedSampler) Validate() error {
	if s.K <= 0 {
		return errors.New("fl: weighted sampler K must be positive")
	}
	for i, w := range s.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("fl: weighted sampler weight %d is %v", i, w)
		}
	}
	return nil
}

func (s WeightedSampler) weight(i int) float64 {
	if i < len(s.Weights) {
		return s.Weights[i]
	}
	return 1
}

// Sample implements ClientSampler: K successive weighted draws, each over
// the clients not yet chosen.
func (s WeightedSampler) Sample(rng *rand.Rand, _, total int) []int {
	k := s.K
	if k > total {
		k = total
	}
	chosen := make([]bool, total)
	ids := make([]int, 0, k)
	for len(ids) < k {
		sum := 0.0
		for i := 0; i < total; i++ {
			if !chosen[i] {
				sum += s.weight(i)
			}
		}
		pick := -1
		if sum > 0 {
			u := rng.Float64() * sum
			for i := 0; i < total; i++ {
				if chosen[i] {
					continue
				}
				u -= s.weight(i)
				if u < 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// All remaining weight is zero (or a degenerate draw): fall back
			// to a uniform choice over the unchosen clients.
			r := rng.Intn(total - len(ids))
			for i := 0; i < total; i++ {
				if chosen[i] {
					continue
				}
				if r == 0 {
					pick = i
					break
				}
				r--
			}
		}
		chosen[pick] = true
		ids = append(ids, pick)
	}
	return ids
}

// ClientFate is the participation outcome of one selected client.
type ClientFate int

const (
	// FateResponds means the client delivers its update before the deadline.
	FateResponds ClientFate = iota
	// FateDropped means the client was unavailable for the round (device
	// offline, battery policy, network partition) and never trained.
	FateDropped
	// FateStraggled means the client trained but missed the round deadline,
	// so its update is discarded — the in-process analogue of a flnet client
	// exceeding ServerConfig.RoundTimeout over real sockets.
	FateStraggled
)

// String returns the fate's display name.
func (f ClientFate) String() string {
	switch f {
	case FateResponds:
		return "responds"
	case FateDropped:
		return "dropped"
	case FateStraggled:
		return "straggled"
	default:
		return fmt.Sprintf("fate(%d)", int(f))
	}
}

// ParticipationModel decides, per selected client per round, whether the
// client's update actually reaches the server in time.
type ParticipationModel interface {
	// Outcome returns the fate of one selected client this round.
	Outcome(rng *rand.Rand, round, client int) ClientFate
}

// FullParticipation is the default: every selected client responds. It
// draws nothing.
type FullParticipation struct{}

// Outcome implements ParticipationModel.
func (FullParticipation) Outcome(*rand.Rand, int, int) ClientFate { return FateResponds }

// RandomChurn drops each selected client with DropoutProb and turns it into
// a deadline-missing straggler with StragglerProb, independently per
// selection. Both fates yield no update; they are tracked separately in the
// round trace because they model different production failure modes.
type RandomChurn struct {
	// DropoutProb is the per-selection probability of unavailability.
	DropoutProb float64
	// StragglerProb is the per-selection probability of missing the deadline.
	StragglerProb float64
}

// Validate reports configuration errors.
func (m RandomChurn) Validate() error {
	if !(m.DropoutProb >= 0 && m.StragglerProb >= 0 && m.DropoutProb+m.StragglerProb <= 1) {
		return fmt.Errorf("fl: churn probabilities (%v, %v) invalid", m.DropoutProb, m.StragglerProb)
	}
	return nil
}

// Outcome implements ParticipationModel. One uniform draw per selection
// keeps the trace reproducible regardless of which fate wins.
func (m RandomChurn) Outcome(rng *rand.Rand, _, _ int) ClientFate {
	u := rng.Float64()
	switch {
	case u < m.DropoutProb:
		return FateDropped
	case u < m.DropoutProb+m.StragglerProb:
		return FateStraggled
	default:
		return FateResponds
	}
}

// ServerOptimizer turns the robust aggregate into the next global model.
// Implementations may keep state across rounds (momentum); a fresh instance
// must be used per run.
type ServerOptimizer interface {
	// Name returns the optimizer's display name.
	Name() string
	// Apply combines the current global weights with the round's aggregate
	// and returns the next global weights.
	Apply(global, aggregated []float64) []float64
}

// PlainApply is the legacy behaviour: the aggregate becomes the global
// model unchanged (bit-exactly — the aggregate slice is returned as-is).
type PlainApply struct{}

// Name implements ServerOptimizer.
func (PlainApply) Name() string { return "plain" }

// Apply implements ServerOptimizer.
func (PlainApply) Apply(_, aggregated []float64) []float64 { return aggregated }

// ServerLRApply applies the aggregate as a pseudo-gradient with a server
// learning rate: w' = w + η·(agg − w). η = 1 recovers plain application;
// η < 1 damps each round's movement, a standard stabilizer under partial
// participation.
type ServerLRApply struct {
	// Eta is the server learning rate.
	Eta float64
}

// Name implements ServerOptimizer.
func (o ServerLRApply) Name() string { return fmt.Sprintf("server-lr-%g", o.Eta) }

// Validate reports configuration errors.
func (o ServerLRApply) Validate() error {
	if !(o.Eta > 0) || math.IsInf(o.Eta, 1) {
		return fmt.Errorf("fl: server learning rate %v must be positive and finite", o.Eta)
	}
	return nil
}

// Apply implements ServerOptimizer.
func (o ServerLRApply) Apply(global, aggregated []float64) []float64 {
	out := make([]float64, len(global))
	for i := range global {
		out[i] = global[i] + o.Eta*(aggregated[i]-global[i])
	}
	return out
}

// FedAvgM is server momentum (Hsu et al.): the round's pseudo-gradient
// accumulates into a velocity buffer, v ← β·v + (agg − w), and the global
// moves along the velocity, w' = w + η·v. Momentum smooths the noisy
// per-round updates of tiny sampling fractions.
type FedAvgM struct {
	// Eta is the server learning rate.
	Eta float64
	// Momentum is the velocity decay β.
	Momentum float64

	velocity []float64
}

// CarriedState implements RoundState: the velocity.
func (*FedAvgM) CarriedState() error {
	return &ResumeError{Component: "fedavgm", State: "server momentum velocity"}
}

// NewFedAvgM constructs a server-momentum optimizer.
func NewFedAvgM(eta, momentum float64) *FedAvgM {
	return &FedAvgM{Eta: eta, Momentum: momentum}
}

// Name implements ServerOptimizer.
func (o *FedAvgM) Name() string { return fmt.Sprintf("fedavgm-%g-%g", o.Eta, o.Momentum) }

// Validate reports configuration errors.
func (o *FedAvgM) Validate() error {
	if !(o.Eta > 0) || math.IsInf(o.Eta, 1) {
		return fmt.Errorf("fl: FedAvgM learning rate %v must be positive and finite", o.Eta)
	}
	if !(o.Momentum >= 0 && o.Momentum < 1) {
		return fmt.Errorf("fl: FedAvgM momentum %v outside [0, 1)", o.Momentum)
	}
	return nil
}

// Apply implements ServerOptimizer.
func (o *FedAvgM) Apply(global, aggregated []float64) []float64 {
	if len(o.velocity) != len(global) {
		o.velocity = make([]float64, len(global))
	}
	out := make([]float64, len(global))
	for i := range global {
		o.velocity[i] = o.Momentum*o.velocity[i] + (aggregated[i] - global[i])
		out[i] = global[i] + o.Eta*o.velocity[i]
	}
	return out
}

// AsyncConfig parameterizes FedBuff-style buffered asynchronous
// aggregation: every collected update is assigned a simulated arrival delay
// of 0..MaxDelay engine steps, and the server aggregates whenever Buffer
// updates have arrived. An update that is τ steps stale when aggregated is
// discounted toward the current global by 1/√(1+τ) (FedBuff's staleness
// weight), expressed as a virtual full weight vector so every robust
// Aggregator of the reproduction works unmodified in async mode.
type AsyncConfig struct {
	// Buffer is B, the number of buffered updates that triggers an
	// aggregation. At the final step any partial buffer is flushed so the
	// run ends on the freshest model the arrived updates support.
	Buffer int
	// MaxDelay bounds the simulated arrival delay in engine steps; delays
	// that would land past the horizon are delivered at the final step.
	MaxDelay int
}
