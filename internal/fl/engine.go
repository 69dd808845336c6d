package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/codec"
	"repro/internal/nn"
	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Transport abstracts how the engine obtains updates from a set of clients:
// in-process worker-pool training over a ClientSource (fl.Simulation) or
// real socket round-trips (flnet.Federation's netTransport). The engine has
// already applied sampling and the simulated participation model; Collect
// receives only the clients expected to respond, and may return fewer
// updates when the transport itself loses clients (real stragglers missing
// a network deadline).
//
// Update storage lasts one round: the transport owns the returned slice and
// every vector and codec frame its updates reference, and may overwrite
// them at its next Collect. The engine compacts the slice in place at
// intake. A consumer that keeps an update past its round — the engine's
// async buffer is the one — copies what it keeps.
type Transport interface {
	// Collect obtains updates from ids, training from global (with prev
	// available to adversarial trainers). The updates come in ids' order,
	// each with its ClientID set. Clients that fail to deliver in time are
	// simply absent from the returned slice, which is valid until the next
	// Collect.
	Collect(round int, ids []int, global, prev []float64) ([]Update, error)
}

// Engine is the single federated round loop shared by every transport. It
// owns client selection, the participation model, attack-context
// construction, the update intake (Intake), aggregation, the server
// optimizer, DPR/ASR metric accounting, per-round evaluation,
// previous-global tracking, the async update buffer, and the per-round
// checkpoint hook. fl.Simulation (the one in-process driver, whatever the
// client source) and flnet.Federation are thin adapters over it.
type Engine struct {
	// TotalClients is N, the population size.
	TotalClients int
	// PerRound is K, the default uniform sampler's selection size.
	PerRound int
	// Rounds is the number of engine steps.
	Rounds int
	// Seed derives every engine RNG stream.
	Seed int64

	// Scenario selects the sampler, participation model, server optimizer
	// and sync/async aggregation mode.
	Scenario Scenario

	// Transport produces updates for the responding clients.
	Transport Transport
	// Aggregator is the server's (possibly Byzantine-robust) rule.
	Aggregator Aggregator

	// Attack, when non-nil, crafts updates for the responding clients
	// IsMalicious flags — the simulator's server-side adversary. Nil when
	// adversaries live behind the transport (flnet), in which case every
	// responder is contacted through Collect.
	Attack Attack
	// IsMalicious reports whether a client ID is adversary-controlled: an
	// O(1) predicate, so population-scale runs never hold O(N) flag storage
	// (see internal/population's placement models). Required with Attack.
	IsMalicious func(id int) bool
	// TotalAttackers is the population-wide attacker count the AttackContext
	// reports; the predicate cannot be cheaply counted.
	TotalAttackers int
	// NewModel hands the attack the experiment's architecture.
	NewModel func(rng *rand.Rand) *nn.Network
	// AttackSamples is the plausible n_i crafted updates report.
	AttackSamples int

	// Observer, when non-nil, receives every aggregation decision (updates,
	// Selection, global weights) — the forensics audit hook. Zero-responder
	// rounds are reported with an empty updates slice so detection metrics
	// record them instead of silently skipping.
	Observer AggregationObserver

	// Codec, when enabled, compresses every update the round produced
	// before aggregation: each update becomes frame-only (Frame set,
	// Weights nil), so the simulator hands the aggregator exactly the lossy
	// view a compressed socket run gives the server, and a dense vector is
	// built only where a consumer asks Update.Vector for one. Updates that
	// already carry a frame (decoded off the wire by the flnet transport)
	// pass through untouched.
	Codec codec.Spec

	// Evaluate measures the global model's accuracy; nil disables
	// evaluation (the flnet server without a test set).
	Evaluate func(weights []float64) (float64, error)
	// OnRound, when non-nil, runs after every completed round with the
	// round's stats, the global weights and the state a run resumed after
	// this round needs — the checkpoint hook.
	OnRound func(stats RoundStats, weights []float64, at persist.Resume) error

	// Resume, when non-nil, continues a checkpointed run after its Round
	// from the initial weights Run is given: the first resumed round hands
	// out its w(t−1), and the result's accuracies start from its own. Nil
	// is a fresh start; CheckResume names the runs that refuse one.
	Resume *persist.Resume

	// Telemetry, when non-nil, receives per-round and per-phase spans and
	// the codec byte counts. Pure observation: it never touches the RNG
	// streams, the update set or the summation order, so a fixed-seed run is
	// bit-identical with telemetry enabled or nil (see
	// TestTelemetryOnOffBitIdentical), and the nil path costs nothing.
	Telemetry *telemetry.EngineTelemetry
}

// pendingUpdate is one in-flight update in async mode.
type pendingUpdate struct {
	u Update
	// dispatched is the engine step the client trained at.
	dispatched int
	// base is the global weight vector the client trained from (shared by
	// all updates dispatched the same step).
	base []float64
}

// Run executes the engine from the given initial global weights and returns
// the result together with the final global weight vector.
func (e *Engine) Run(initial []float64) (*Result, []float64, error) {
	if e.Transport == nil {
		return nil, nil, errors.New("fl: engine transport must not be nil")
	}
	if e.Aggregator == nil {
		return nil, nil, errors.New("fl: engine aggregator must not be nil")
	}
	if e.Attack != nil && e.IsMalicious == nil {
		return nil, nil, errors.New("fl: engine attack requires an IsMalicious predicate")
	}
	if err := e.Scenario.Validate(); err != nil {
		return nil, nil, err
	}
	sampler := e.Scenario.Sampler
	if sampler == nil {
		sampler = UniformSampler{K: e.PerRound}
	}
	part := e.Scenario.Participation
	if part == nil {
		part = FullParticipation{}
	}
	opt := e.Scenario.ServerOpt
	if opt == nil {
		opt = PlainApply{}
	}
	if err := e.CheckResume(); err != nil {
		return nil, nil, err
	}
	res := &Result{FinalAccuracy: math.NaN()}
	global := initial
	prev := append([]float64(nil), global...)
	start := 0
	if r := e.Resume; r != nil {
		if r.Round < 0 || len(r.Prev) != len(global) {
			return nil, nil, fmt.Errorf("fl: resume after round %d with %d previous weights for %d weights", r.Round, len(r.Prev), len(global))
		}
		start, prev = r.Round+1, r.Prev
		res.MaxAccuracy, res.FinalAccuracy = r.MaxAccuracy, r.Accuracy
	}
	async := e.Scenario.Async

	// The round's streams, re-seeded from (Seed, round) at its top (see
	// DrawSeed): reused, never carried from one round to the next.
	draws := [...]uint64{drawSelect, drawPart, DrawCraft, drawAsync}
	var rngs [len(draws)]*rand.Rand
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(0))
	}
	selRng, partRng, asyncRng := rngs[0], rngs[1], rngs[3]
	// Attacked rounds reuse one context and one slice of merged updates.
	craft := AttackContext{Seed: e.Seed, TotalClients: e.TotalClients,
		TotalAttackers: e.TotalAttackers, NewModel: e.NewModel, Rng: rngs[2]}
	var merged []Update

	if err := e.Codec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fl: codec: %w", err)
	}
	// NewEncoder returns nil for a disabled spec; with EF enabled it also
	// carries per-client residuals across rounds, so it must live for the
	// whole run.
	enc := codec.NewEncoder(e.Codec)

	var arrivals [][]pendingUpdate
	var buffer []pendingUpdate
	if async != nil {
		arrivals = make([][]pendingUpdate, e.Rounds)
	}

	for round := start; round < e.Rounds; round++ {
		// Spans use explicit End calls (not defer) so the telemetry-nil path
		// stays allocation-free; error returns may drop an open span, which
		// is fine — the run is over.
		roundSpan := e.Telemetry.Round()
		spSelect := e.Telemetry.Phase(telemetry.PhaseSelect)
		for i, tag := range draws {
			rngs[i].Seed(DrawSeed(e.Seed, tag, round, 0))
		}
		selected := sampler.Sample(selRng, round, e.TotalClients)
		stats := RoundStats{
			Round:           round,
			Accuracy:        math.NaN(),
			PassedMalicious: -1,
			Selected:        len(selected),
		}

		var responders []int
		for _, id := range selected {
			switch part.Outcome(partRng, round, id) {
			case FateDropped:
				stats.Dropped++
			case FateStraggled:
				stats.Straggled++
			default:
				responders = append(responders, id)
			}
		}

		var benignIDs, attackerIDs []int
		if e.Attack != nil {
			for _, id := range responders {
				if e.IsMalicious(id) {
					attackerIDs = append(attackerIDs, id)
				} else {
					benignIDs = append(benignIDs, id)
				}
			}
		} else {
			benignIDs = responders
		}
		stats.SelectedMalicious = len(attackerIDs)
		spSelect.End()

		var updates []Update
		var err error
		if len(attackerIDs) == 0 {
			updates, err = e.collect(round, benignIDs, global, prev)
		} else {
			updates, err = e.collectAttacked(round, len(selected), responders, benignIDs, attackerIDs, global, prev, &craft, merged)
			merged = updates
		}
		if err != nil {
			return nil, nil, err
		}
		var malicious int
		updates, malicious = e.intake(updates, len(global))
		res.MaliciousSubmitted += malicious
		stats.Responded = len(updates)
		// Compress the round's submissions: attackers ride the same wire
		// format as everyone else, and the server's view of each update
		// becomes its frame alone — exactly what a compressed socket run
		// would decode. Updates that already carry a frame (flnet decoded
		// them off the wire) pass through untouched.
		if enc != nil {
			spEncode := e.Telemetry.Phase(telemetry.PhaseEncode)
			for i := range updates {
				if updates[i].Frame != nil {
					continue
				}
				f := enc.Encode(updates[i].ClientID, round, global, updates[i].Weights)
				updates[i].Frame, updates[i].Weights = f, nil
				e.Telemetry.AddBytesIn(codec.WireSize(f))
			}
			spEncode.End()
		}
		if e.Telemetry != nil {
			// Frames entering aggregation this round, whether encoded here or
			// decoded off the wire by the flnet transport (which accounts the
			// real wire bytes itself — byte ownership never overlaps).
			frames := 0
			for i := range updates {
				if updates[i].Frame != nil {
					frames++
				}
			}
			e.Telemetry.AddFrames(frames)
		}

		if async == nil {
			if len(updates) > 0 {
				if err := e.applyAggregation(round, updates, &global, &prev, opt, &stats, res); err != nil {
					return nil, nil, err
				}
			} else if e.Observer != nil {
				// A zero-responder round must be recorded (as a zero-selection
				// round) rather than silently skipped, mirroring the engine's
				// own trace. The Selection stays zero: the defense never ran,
				// so no accept/reject decision exists to report.
				e.Observer.ObserveAggregation(round, global, nil, Selection{})
			}
		} else {
			if len(updates) > 0 {
				base := append([]float64(nil), global...)
				for _, u := range updates {
					at := round + asyncRng.Intn(async.MaxDelay+1)
					if at >= e.Rounds {
						at = e.Rounds - 1
					}
					// The update outlives its round here, so its dense
					// vector or frame must outlive the storage of the
					// transport or encode slot that filled it.
					u.Weights = slices.Clone(u.Weights)
					if u.Frame != nil {
						u.Frame = u.Frame.Clone()
					}
					arrivals[at] = append(arrivals[at], pendingUpdate{u: u, dispatched: round, base: base})
				}
			}
			buffer = append(buffer, arrivals[round]...)
			arrivals[round] = nil
			for len(buffer) >= async.Buffer || (round == e.Rounds-1 && len(buffer) > 0) {
				n := async.Buffer
				if n > len(buffer) {
					n = len(buffer)
				}
				batch := buffer[:n:n]
				buffer = buffer[n:]
				virt := make([]Update, len(batch))
				for i, p := range batch {
					// Staleness-discounted virtual weight vector: the
					// client's movement away from the global it trained
					// from, scaled by FedBuff's 1/√(1+τ), re-anchored at
					// the current global. A frame reconstructs against the
					// global it was encoded from.
					discount := 1 / math.Sqrt(1+float64(round-p.dispatched))
					uw := p.u.Vector(p.base)
					w := make([]float64, len(global))
					for j := range w {
						w[j] = global[j] + discount*(uw[j]-p.base[j])
					}
					virt[i] = Update{
						ClientID:   p.u.ClientID,
						Weights:    w,
						NumSamples: p.u.NumSamples,
						Malicious:  p.u.Malicious,
					}
				}
				if err := e.applyAggregation(round, virt, &global, &prev, opt, &stats, res); err != nil {
					return nil, nil, err
				}
			}
			if e.Observer != nil && len(updates) == 0 && stats.Aggregations == 0 {
				// Same contract as the synchronous branch: an engine step
				// that produced no updates and flushed no buffer is recorded
				// as a zero-selection round, never skipped.
				e.Observer.ObserveAggregation(round, global, nil, Selection{})
			}
		}

		if e.Evaluate != nil {
			spEval := e.Telemetry.Phase(telemetry.PhaseEval)
			acc, err := e.Evaluate(global)
			spEval.End()
			if err != nil {
				return nil, nil, err
			}
			stats.Accuracy = acc
			if acc > res.MaxAccuracy {
				res.MaxAccuracy = acc
			}
			res.FinalAccuracy = acc
		}
		res.Rounds = append(res.Rounds, stats)
		if e.OnRound != nil {
			spCkpt := e.Telemetry.Phase(telemetry.PhaseCheckpoint)
			err := e.OnRound(stats, global, persist.Resume{Round: round, Prev: prev, Accuracy: stats.Accuracy, MaxAccuracy: res.MaxAccuracy})
			spCkpt.End()
			if err != nil {
				return nil, nil, err
			}
		}
		roundSpan.End()
	}
	return res, global, nil
}

// CheckResume returns a *ResumeError when the run cannot continue from
// Resume: an async run's in-flight buffer, or what its server optimizer or
// aggregator carries (RoundState), is in no checkpoint.
func (e *Engine) CheckResume() error {
	switch {
	case e.Resume == nil:
		return nil
	case e.Scenario.Async != nil:
		return &ResumeError{Component: "async", State: "in-flight update buffer"}
	}
	return RefuseResume(e.Scenario.ServerOpt, e.Aggregator)
}

// collect is the transport round-trip for the round's benign responders.
func (e *Engine) collect(round int, ids []int, global, prev []float64) ([]Update, error) {
	sp := e.Telemetry.Phase(telemetry.PhaseCollect)
	e.Telemetry.AddBytesOut(8 * len(global) * len(ids))
	updates, err := e.Transport.Collect(round, ids, global, prev)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", round, err)
	}
	return updates, nil
}

// collectAttacked is collect for a round that selected attackers: it
// returns the round's updates in responders' order, each crafted update at
// its attacker's slot, as a server keeps each reply at its selection slot;
// they are appended to merged[:0].
// An attack that is no OracleAttack needs nothing the round produces, so
// its Craft starts now, on a helper goroutine holding one slot of tensor's
// budget, beside the transport round-trip — as a real attacker computes
// beside the honest clients — and cannot eavesdrop: BenignUpdates is nil.
// An oracle, or any attack when no slot is free, runs the same closure on
// this goroutine once Collect has returned. Either way the craft alone
// draws from the round's craft stream, so where it ran changes no number.
// Kept apart from Run so the variables the closure captures cost an
// unattacked round nothing.
func (e *Engine) collectAttacked(round, numSelected int, responders, benignIDs, attackerIDs []int, global, prev []float64, ctx *AttackContext, merged []Update) ([]Update, error) {
	ctx.Round, ctx.Global, ctx.PrevGlobal, ctx.BenignUpdates = round, global, prev, nil
	ctx.NumAttackers, ctx.AttackerIDs, ctx.NumSelected = len(attackerIDs), attackerIDs, numSelected
	var (
		malVecs  [][]float64
		craftErr error
		panicked any
	)
	craft := func() {
		sp := e.Telemetry.Phase(telemetry.PhaseAttack)
		malVecs, craftErr = e.Attack.Craft(ctx)
		sp.End()
	}
	_, oracle := e.Attack.(OracleAttack)
	var wg sync.WaitGroup
	beside := !oracle && tensor.TryGo(&wg, func() {
		defer func() { panicked = recover() }()
		craft()
	})
	updates, err := e.collect(round, benignIDs, global, prev)
	// The craft owns the craft stream until it returns: not even a failed
	// Collect leaves it running, and its panic is raised here, where an
	// inline craft's would be.
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if err != nil {
		return nil, err
	}
	if !beside {
		if oracle {
			ctx.BenignUpdates = make([][]float64, len(updates))
			for i, u := range updates {
				ctx.BenignUpdates[i] = u.Vector(global)
			}
		}
		craft()
	}
	if craftErr != nil {
		return nil, fmt.Errorf("round %d: attack %s: %w", round, e.Attack.Name(), craftErr)
	}
	if len(malVecs) != len(attackerIDs) {
		return nil, fmt.Errorf("round %d: attack returned %d vectors for %d attackers", round, len(malVecs), len(attackerIDs))
	}
	// Both benignIDs (minus what the transport lost) and attackerIDs are
	// in responders' order.
	merged = merged[:0]
	b, m := 0, 0
	for _, id := range responders {
		switch {
		case m < len(attackerIDs) && attackerIDs[m] == id:
			merged = append(merged, Update{ClientID: id, Weights: malVecs[m], NumSamples: e.AttackSamples, Malicious: true})
			m++
		case b < len(updates) && updates[b].ClientID == id:
			merged = append(merged, updates[b])
			b++
		}
	}
	if b != len(updates) {
		return nil, fmt.Errorf("round %d: transport returned updates out of order or without their client IDs", round)
	}
	return merged, nil
}

// intake applies Intake to the round's updates, crafted ones included:
// it compacts the admitted ones to the front of updates in place, in
// order, counts each refused one under its reason, and returns the
// admitted updates with how many of them are malicious.
func (e *Engine) intake(updates []Update, dim int) ([]Update, int) {
	kept, malicious := 0, 0
	for _, u := range updates {
		if reason, ok := Intake(u, dim); !ok {
			e.Telemetry.Rejected(reason)
			continue
		}
		if u.Malicious {
			malicious++
		}
		updates[kept] = u
		kept++
	}
	return updates[:kept], malicious
}

// applyAggregation runs one server aggregation: the robust rule (and the
// distance-matrix time it reports), the DPR accounting for
// selection-reporting defenses, the audit observer and the server
// optimizer.
func (e *Engine) applyAggregation(round int, updates []Update, global, prev *[]float64, opt ServerOptimizer, stats *RoundStats, res *Result) error {
	spAgg := e.Telemetry.Phase(telemetry.PhaseAggregate)
	newGlobal, sel, err := e.Aggregator.Aggregate(*global, updates)
	spAgg.End()
	e.Telemetry.Distance(spAgg, sel.DistanceNanos)
	if err != nil {
		return fmt.Errorf("round %d: defense %s: %w", round, e.Aggregator.Name(), err)
	}
	if len(newGlobal) != len(*global) {
		return fmt.Errorf("round %d: defense returned %d weights, want %d", round, len(newGlobal), len(*global))
	}
	if sel.Known() {
		res.DPRKnown = true
		passed := 0
		for _, idx := range sel.Accepted {
			if idx < 0 || idx >= len(updates) {
				return fmt.Errorf("round %d: defense selected out-of-range update %d", round, idx)
			}
			if updates[idx].Malicious {
				passed++
			}
		}
		if stats.PassedMalicious < 0 {
			stats.PassedMalicious = 0
		}
		stats.PassedMalicious += passed
		res.MaliciousPassed += passed
	}
	if e.Observer != nil {
		e.Observer.ObserveAggregation(round, *global, updates, sel)
	}
	spOpt := e.Telemetry.Phase(telemetry.PhaseServerOpt)
	next := opt.Apply(*global, newGlobal)
	spOpt.End()
	if len(next) != len(*global) {
		return fmt.Errorf("round %d: server optimizer %s returned %d weights, want %d", round, opt.Name(), len(next), len(*global))
	}
	*prev = *global
	*global = next
	stats.Aggregations++
	return nil
}
