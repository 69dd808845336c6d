package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/nn"
)

const socketTimeout = 60 * time.Second

// synthTrainer is a client that does O(d) synthetic work: it answers every
// request with global + its fixed delta. Four clients in five are honest
// (small noise around a shared direction); the fifth is an outlier mKrum
// must reject, so the aggregate has a closed form (see expectedFinal).
type synthTrainer struct{ delta []float64 }

func (t *synthTrainer) Train(_ int, global, _ []float64) ([]float64, int, error) {
	out := make([]float64, len(global))
	for i, g := range global {
		out[i] = g + t.delta[i]
	}
	return out, 32, nil
}

// tracedTrainer decorates a trainer with entry and exit timestamps, one
// pair per round. Each client owns its record; the harness reads them after
// the federation has ended.
type tracedTrainer struct {
	inner       flnet.Trainer
	enter, exit []time.Time
}

func (t *tracedTrainer) Train(round int, global, prev []float64) ([]float64, int, error) {
	t.enter = append(t.enter, time.Now())
	w, n, err := t.inner.Train(round, global, prev)
	t.exit = append(t.exit, time.Now())
	return w, n, err
}

// timedAggregator decorates the aggregation rule with one timestamp pair
// per call, and reads the socket counters when the call ends: by then the
// round's requests are written and its updates read, and the final
// broadcast has not started. The engine calls it from one goroutine, once
// per round.
type timedAggregator struct {
	fl.Aggregator
	counters   *netCounters
	start, end []time.Time
	traffic    []netSnapshot
}

func (a *timedAggregator) Aggregate(global []float64, updates []fl.Update) ([]float64, fl.Selection, error) {
	a.start = append(a.start, time.Now())
	out, sel, err := a.Aggregator.Aggregate(global, updates)
	a.end = append(a.end, time.Now())
	a.traffic = append(a.traffic, a.counters.snapshot())
	return out, sel, err
}

func isOutlier(client int) bool { return client%5 == 4 }

// socketRunner drives one loopback federation per pass.
type socketRunner struct {
	shape  socketShape
	spec   codec.Spec
	seed   int64
	deltas [][]float64
	// firstDigest covers the first pass's final weights; every later pass of
	// the same seed must reproduce them bit for bit.
	firstDigest string
	checks      []check
	// joinMs is the time each pass took to join all but the last client.
	joinMs []float64
	// net is filled by traced passes.
	net socketTrace
}

// socketTrace pools what the decorators saw over the traced passes.
type socketTrace struct {
	rounds                              int
	roundGapMs, aggMs, trainMs, transMs []float64
	traffic                             netSnapshot
	stragglers, clientErrors            int
	tracedWallS                         float64
}

func newSocketRunner(shape socketShape, seed int64) (*socketRunner, error) {
	spec, err := codec.ParseSpec(shape.codec)
	if err != nil {
		return nil, err
	}
	r := &socketRunner{shape: shape, spec: spec, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	base := randVec(rng, r.dim(), 0.01)
	r.deltas = make([][]float64, shape.k)
	for c := range r.deltas {
		std := 0.002
		if isOutlier(c) {
			std = 0.05
		}
		delta := randVec(rng, len(base), std)
		for i := range delta {
			delta[i] += base[i]
		}
		r.deltas[c] = delta
	}
	return r, nil
}

func (r *socketRunner) dim() int { return r.shape.in*10 + 10 }

func (r *socketRunner) newModel(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(nn.NewDense(rng, r.shape.in, 10))
}

// expectedFinal is the closed form of the dense federation: mKrum keeps
// exactly the honest clients, whose mean delta is added once per round.
func (r *socketRunner) expectedFinal(rounds int) (initial, final []float64) {
	initial = r.newModel(rand.New(rand.NewSource(r.seed))).WeightVector()
	final = append([]float64(nil), initial...)
	honest := 0
	mean := make([]float64, len(initial))
	for c, delta := range r.deltas {
		if isOutlier(c) {
			continue
		}
		honest++
		for i, v := range delta {
			mean[i] += v
		}
	}
	for i := range final {
		final[i] += float64(rounds) * mean[i] / float64(honest)
	}
	return initial, final
}

// federate runs one federation of the given number of rounds. With traced
// set the decorators are on and their spans go to tr.
func (r *socketRunner) federate(tr *tracer, rounds int, traced bool) (passStat, []float64, error) {
	var agg fl.Aggregator
	agg, err := defense.ByName("mkrum", r.shape.f)
	if err != nil {
		return passStat{}, nil, err
	}
	var counters netCounters
	var timedAgg *timedAggregator
	if traced {
		timedAgg = &timedAggregator{Aggregator: agg, counters: &counters}
		agg = timedAgg
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		MinClients: r.shape.k, PerRound: r.shape.k, Rounds: rounds, Seed: r.seed,
		RoundTimeout: socketTimeout, Codec: r.spec.String(),
	}, agg, r.newModel, nil)
	if err != nil {
		return passStat{}, nil, err
	}
	var lis net.Listener
	lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passStat{}, nil, err
	}
	defer func() { _ = lis.Close() }()
	addr := lis.Addr().String()
	if traced {
		lis = countingListener{Listener: lis, c: &counters}
	}

	type served struct {
		res *flnet.ServerResult
		err error
	}
	done := make(chan served, 1)
	go func() {
		res, err := srv.Serve(lis)
		done <- served{res, err}
	}()

	var clients sync.WaitGroup
	clientErrs := make([]error, r.shape.k)
	trainers := make([]*tracedTrainer, r.shape.k)
	joinStart := time.Now()
	var m *meter
	var joined netSnapshot
	var dialErr error
	for c := 0; c < r.shape.k; c++ {
		if c == r.shape.k-1 {
			// The federation starts its first round as soon as the last
			// client has joined, so the timed section opens just before.
			r.joinMs = append(r.joinMs, time.Since(joinStart).Seconds()*1e3)
			joined = counters.snapshot()
			m = startMeter()
		}
		var trainer flnet.Trainer = &synthTrainer{delta: r.deltas[c]}
		if traced {
			trainers[c] = &tracedTrainer{inner: trainer}
			trainer = trainers[c]
		}
		cl, err := flnet.DialCodec(addr, trainer, socketTimeout, r.spec)
		if err != nil {
			dialErr = fmt.Errorf("client %d: %w", c, err)
			break
		}
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			_, clientErrs[c] = cl.Run()
		}(c)
	}
	if dialErr != nil {
		// Unblock the accept loop; the joined clients end when the server
		// closes their connections.
		_ = lis.Close()
		<-done
		clients.Wait()
		return passStat{}, nil, dialErr
	}
	out := <-done
	ps := m.stop()
	clients.Wait()
	if out.err != nil {
		return passStat{}, nil, out.err
	}
	ps.Rounds = len(out.res.Rounds)
	for _, rr := range out.res.Rounds {
		ps.Attempted += rr.Selected
		ps.Failed += rr.Selected - rr.Responded
		if traced {
			r.net.stragglers += rr.Selected - rr.Responded
		}
	}
	for _, err := range clientErrs {
		if err != nil {
			ps.Failed++
			if traced {
				r.net.clientErrors++
			}
		}
	}
	if traced {
		r.record(tr, m.start, ps, timedAgg, trainers, joined)
	}
	return ps, out.res.FinalWeights, nil
}

// record turns the decorators' timestamps into spans and pooled samples:
// a round runs from the end of the previous aggregation to the end of its
// own, and splits into downlink (until the last client has its request),
// the clients' training, uplink (until aggregation starts) and aggregation.
func (r *socketRunner) record(tr *tracer, start time.Time, ps passStat, agg *timedAggregator, trainers []*tracedTrainer, joined netSnapshot) {
	pass := tr.add(0, "bench", "pass", "", -1, start, start.Add(time.Duration(ps.WallS*float64(time.Second))))
	roundStart := start
	for round := range agg.start {
		firstEnter, lastEnter, lastExit := time.Time{}, time.Time{}, time.Time{}
		slowest := time.Duration(0)
		id := tr.add(pass, "flnet", "round", "", round, roundStart, agg.end[round])
		for _, t := range trainers {
			if round >= len(t.exit) {
				continue
			}
			enter, exit := t.enter[round], t.exit[round]
			tr.add(id, "flnet", "client_train", "", round, enter, exit)
			if firstEnter.IsZero() || enter.Before(firstEnter) {
				firstEnter = enter
			}
			if enter.After(lastEnter) {
				lastEnter = enter
			}
			if exit.After(lastExit) {
				lastExit = exit
			}
			slowest = max(slowest, exit.Sub(enter))
			r.net.trainMs = append(r.net.trainMs, exit.Sub(enter).Seconds()*1e3)
		}
		if !lastEnter.IsZero() {
			tr.add(id, "flnet", "downlink_write", "", round, roundStart, lastEnter)
			tr.add(id, "flnet", "uplink_read", "", round, lastExit, agg.start[round])
		}
		tr.add(id, "defense", "aggregate", "", round, agg.start[round], agg.end[round])
		roundMs := agg.end[round].Sub(roundStart).Seconds() * 1e3
		aggMs := agg.end[round].Sub(agg.start[round]).Seconds() * 1e3
		r.net.aggMs = append(r.net.aggMs, aggMs)
		r.net.transMs = append(r.net.transMs, roundMs-aggMs-slowest.Seconds()*1e3)
		if round > 0 && len(trainers[0].enter) > round {
			gap := trainers[0].enter[round].Sub(trainers[0].enter[round-1])
			r.net.roundGapMs = append(r.net.roundGapMs, gap.Seconds()*1e3)
		}
		roundStart = agg.end[round]
	}
	r.net.rounds += ps.Rounds
	r.net.tracedWallS += ps.WallS
	if len(agg.traffic) > 0 {
		r.net.traffic.add(agg.traffic[len(agg.traffic)-1].minus(joined))
	}
}

func (r *socketRunner) warm() (string, error) {
	_, final, err := r.federate(nil, 1, false)
	if err != nil {
		return "", err
	}
	return digestFloats(final...), nil
}

func (r *socketRunner) pass(tr *tracer, _ int) passStat {
	ps, final, err := r.federate(tr, r.shape.rounds, tr != nil)
	if err != nil {
		// A federation that fails loses every client-round it was asked for.
		ps.Attempted = r.shape.k * r.shape.rounds
		ps.Failed = ps.Attempted
		r.checks = append(r.checks, check{"federation-finishes", false, err.Error()})
		return ps
	}
	r.checks = append(r.checks, check{"all-clients-respond", ps.Failed == 0, fmt.Sprintf("%d of %d client-rounds failed", ps.Failed, ps.Attempted)})
	if digest := digestFloats(final...); r.firstDigest == "" {
		r.firstDigest = digest
		r.checks = append(r.checks, r.checkFinal(final))
	} else {
		r.checks = append(r.checks, check{"reruns-bit-identical", digest == r.firstDigest, ""})
	}
	return ps
}

func (r *socketRunner) verify() []check { return r.checks }

// checkFinal compares the final weights with the closed form: the relative
// L2 error, as a share of the distance the model moved, must stay within the
// shape's bound.
func (r *socketRunner) checkFinal(final []float64) check {
	name := "final-weights-match-closed-form"
	initial, want := r.expectedFinal(r.shape.rounds)
	if len(final) != len(want) {
		return check{name, false, fmt.Sprintf("%d weights, want %d", len(final), len(want))}
	}
	var errSq, moveSq float64
	for i := range want {
		if math.IsNaN(final[i]) || math.IsInf(final[i], 0) {
			return check{name, false, "non-finite final weight"}
		}
		errSq += (final[i] - want[i]) * (final[i] - want[i])
		moveSq += (want[i] - initial[i]) * (want[i] - initial[i])
	}
	rel := math.Sqrt(errSq / moveSq)
	return check{name, rel <= r.shape.finalBound, fmt.Sprintf("relative L2 error %.3g, bound %.3g", rel, r.shape.finalBound)}
}

var errNoTrace = errors.New("no traced pass ran")

// layerMetrics reports what the decorators saw, per round.
func (r *socketRunner) layerMetrics(_ *tracer, into map[string]float64) ([]string, error) {
	n := &r.net
	if n.rounds == 0 {
		return nil, errNoTrace
	}
	rounds, clientRounds := float64(n.rounds), float64(n.rounds*r.shape.k)
	into["flnet.round_ms_p50"] = median(n.roundGapMs)
	into["flnet.round_ms_p90"] = percentile(n.roundGapMs, 90)
	into["flnet.aggregate_ms"] = median(n.aggMs)
	into["flnet.client_train_ms"] = median(n.trainMs)
	into["flnet.transport_ms"] = median(n.transMs)
	into["flnet.downlink_bytes_per_round"] = float64(n.traffic.writeBytes) / rounds
	into["flnet.uplink_bytes_per_round"] = float64(n.traffic.readBytes) / rounds
	into["flnet.downlink_bytes_per_client_round"] = float64(n.traffic.writeBytes) / clientRounds
	into["flnet.uplink_bytes_per_client_round"] = float64(n.traffic.readBytes) / clientRounds
	into["flnet.writes_per_round"] = float64(n.traffic.writes) / rounds
	into["flnet.reads_per_round"] = float64(n.traffic.reads) / rounds
	into["flnet.join_ms"] = median(r.joinMs)
	into["flnet.stragglers"] = float64(n.stragglers)
	into["flnet.client_errors"] = float64(n.clientErrors)
	into["defense.aggregate_share"] = sum(n.aggMs) / 1e3 / n.tracedWallS
	return nil, nil
}
