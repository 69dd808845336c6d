package fl

import (
	"errors"
	"math"
	"testing"
)

// driftTransport trains nothing: client id's update pulls the global toward
// a point of its own and carries some of the last step w − w(t−1), so a
// round's result depends on both vectors a checkpoint restores.
var driftTransport = transportFunc(func(round int, ids []int, global, prev []float64) ([]Update, error) {
	ups := make([]Update, len(ids))
	for k, id := range ids {
		w := make([]float64, len(global))
		for i := range w {
			target := math.Sin(float64(7*id + 3*i + round))
			w[i] = global[i] + 0.3*(target-global[i]) + 0.1*(global[i]-prev[i])
		}
		ups[k] = Update{ClientID: id, Weights: w, NumSamples: 10 + id}
	}
	return ups, nil
})

// runResumable runs 10 clients, 4 a round, through rounds [start, rounds)
// from initial (and w(t−1) prev when resuming), and returns the final
// weights with the checkpoint its last round would write: that round's
// global and w(t−1).
func runResumable(opt func() ServerOptimizer, start, rounds int, initial, prev []float64) (final, cpPrev []float64, err error) {
	eng := &Engine{
		TotalClients: 10,
		PerRound:     4,
		Rounds:       rounds,
		StartRound:   start,
		Seed:         3,
		Scenario:     Scenario{ServerOpt: opt()},
		Transport:    driftTransport,
		Aggregator:   meanAggregator{},
		InitialPrev:  prev,
		OnRound: func(_ RoundStats, _, p []float64, _ float64) error {
			cpPrev = append(cpPrev[:0], p...)
			return nil
		},
	}
	_, final, err = eng.Run(append([]float64(nil), initial...))
	return final, cpPrev, err
}

// TestResumeBitIdentical: killed after round 2 and resumed from its
// checkpoint, a run under a stateless server optimizer ends bit-identical
// to the uninterrupted one.
func TestResumeBitIdentical(t *testing.T) {
	initial := []float64{0.5, -0.25, 1, 0}
	for name, opt := range map[string]func() ServerOptimizer{
		"plain":     func() ServerOptimizer { return PlainApply{} },
		"server-lr": func() ServerOptimizer { return ServerLRApply{Eta: 0.7} },
	} {
		straight, _, err := runResumable(opt, 0, 5, initial, nil)
		if err != nil {
			t.Fatal(err)
		}
		cp, cpPrev, err := runResumable(opt, 0, 2, initial, nil)
		if err != nil {
			t.Fatal(err)
		}
		resumed, _, err := runResumable(opt, 2, 5, cp, cpPrev)
		if err != nil {
			t.Fatalf("%s: resume refused: %v", name, err)
		}
		for i := range straight {
			if resumed[i] != straight[i] {
				t.Fatalf("%s: resumed weight %d = %v, uninterrupted %v", name, i, resumed[i], straight[i])
			}
		}
	}
}

// TestFedAvgMResumeRefused: FedAvgM's velocity is carried from round to
// round and no checkpoint holds it, so a resumed run would silently diverge
// from the uninterrupted one; the engine refuses it with a typed error
// naming the component.
func TestFedAvgMResumeRefused(t *testing.T) {
	opt := func() ServerOptimizer { return NewFedAvgM(1, 0.9) }
	initial := []float64{0.5, -0.25, 1, 0}
	straight, _, err := runResumable(opt, 0, 5, initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, cpPrev, err := runResumable(opt, 0, 2, initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, err := runResumable(opt, 2, 5, cp, cpPrev)
	var re *ResumeError
	if !errors.As(err, &re) || re.Component != "fedavgm" {
		t.Fatalf("FedAvgM resume: err %v, want a *ResumeError naming fedavgm (resumed %v, uninterrupted %v)", err, resumed, straight)
	}
}
