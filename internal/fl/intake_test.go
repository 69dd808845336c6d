package fl

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/telemetry"
)

// bentTransport hands the engine the wrapped transport's updates, the first
// of round 1's bent by bend: a benign client sending garbage.
type bentTransport struct {
	inner Transport
	bend  func(*Update)
}

func (b bentTransport) Collect(round int, ids []int, global, prev []float64) ([]Update, error) {
	updates, err := b.inner.Collect(round, ids, global, prev)
	if err == nil && round == 1 && len(updates) > 0 {
		b.bend(&updates[0])
	}
	return updates, err
}

// infAttack crafts zero vectors with +Inf in their first coordinate.
type infAttack struct{}

func (infAttack) Name() string { return "inf" }

func (infAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	out, _ := zeroAttack{}.Craft(ctx)
	for _, v := range out {
		v[0] = math.Inf(1)
	}
	return out, nil
}

// TestIntakeRejectsBadUpdates: a NaN benign update, a +Inf crafted update, a
// wrong-length crafted update and a negative sample count are each refused
// by the engine's intake, in sync and in async (B = K) mode: every refusal is
// counted once under its reason and no other, the round's Responded and DPR's
// denominator leave it out, and the run ends on finite weights — although
// the aggregator is a plain mean that any one of them would poison.
func TestIntakeRejectsBadUpdates(t *testing.T) {
	train, test, shards, newModel := tinySetup(t, 42)
	cases := []struct {
		name   string
		attack Attack
		bend   func(*Update)
		reason telemetry.IntakeReason
	}{
		{"nan-benign", nil, func(u *Update) { u.Weights[len(u.Weights)/2] = math.NaN() }, telemetry.IntakeNonFinite},
		{"inf-crafted", infAttack{}, nil, telemetry.IntakeNonFinite},
		{"wrong-length-crafted", shortAttack{}, nil, telemetry.IntakeDimension},
		{"negative-samples", nil, func(u *Update) { u.NumSamples = -1 }, telemetry.IntakeSamples},
	}
	for _, c := range cases {
		for _, async := range []bool{false, true} {
			name := c.name + "/sync"
			if async {
				name = c.name + "/async"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig()
				cfg.Rounds = 3
				if async {
					cfg.Scenario.Async = &AsyncConfig{Buffer: cfg.PerRound}
				}
				reg := telemetry.NewRegistry()
				cfg.Telemetry = telemetry.NewEngineTelemetry(reg, nil, "")
				atk, place := c.attack, Placement(nil)
				if atk != nil {
					place = firstK(6)
				}
				sim, err := NewSimulation(cfg, train, test, shards, place, newModel, meanAggregator{reportSelection: true}, atk)
				if err != nil {
					t.Fatal(err)
				}
				wrap := func(tr Transport) Transport { return tr }
				if c.bend != nil {
					wrap = func(tr Transport) Transport { return bentTransport{inner: tr, bend: c.bend} }
				}
				res, err := sim.RunThrough(wrap)
				if err != nil {
					t.Fatal(err)
				}
				// The bent benign update, or every crafted one.
				want := 0
				for _, rs := range res.Rounds {
					bad := rs.SelectedMalicious
					if c.bend != nil && rs.Round == 1 {
						bad = 1
					}
					if got := rs.Selected - bad; rs.Responded != got {
						t.Errorf("round %d: %d responded, want %d admitted of %d selected", rs.Round, rs.Responded, got, rs.Selected)
					}
					want += bad
				}
				if want == 0 {
					t.Fatal("no bad update was ever submitted")
				}
				for r := telemetry.IntakeNonFinite; r <= telemetry.IntakeSamples; r++ {
					n := reg.Counter("fl_updates_rejected_total", "", telemetry.Label{Key: "reason", Value: r.Name()}).Value()
					if r != c.reason && n != 0 {
						t.Errorf("%d updates rejected as %s, want 0", n, r.Name())
					} else if r == c.reason && n != int64(want) {
						t.Errorf("%d updates rejected as %s, want %d", n, r.Name(), want)
					}
				}
				if res.MaliciousSubmitted != 0 || res.MaliciousPassed != 0 {
					t.Errorf("DPR counts %d/%d refused crafted updates as submitted/passed", res.MaliciousPassed, res.MaliciousSubmitted)
				}
				for i, w := range sim.GlobalWeights() {
					if math.IsNaN(w) || math.IsInf(w, 0) {
						t.Fatalf("final weight %d is %v: a refused update was aggregated", i, w)
					}
				}
			})
		}
	}
}

// TestIntakeRule pins the rule on single updates: dimension first, then the
// sample count, then a dense update's values; a frame is judged by its Dim
// and never scanned.
func TestIntakeRule(t *testing.T) {
	const dim = 7
	dense := func(bad int, x float64) []float64 {
		w := make([]float64, dim)
		for i := range w {
			w[i] = float64(i) - 3.5
		}
		if bad >= 0 {
			w[bad] = x
		}
		return w
	}
	frame := func(d int) *codec.Frame {
		return codec.NewEncoder(codec.Spec{Quant: codec.Int8}).Encode(0, 0, make([]float64, d), make([]float64, d))
	}
	const ok = telemetry.IntakeReason(-1)
	cases := []struct {
		name string
		u    Update
		want telemetry.IntakeReason
	}{
		{"dense", Update{Weights: dense(-1, 0), NumSamples: 3}, ok},
		{"zero samples", Update{Weights: dense(-1, 0)}, ok},
		{"huge finite", Update{Weights: dense(2, math.MaxFloat64), NumSamples: 1}, ok},
		{"frame", Update{Frame: frame(dim), NumSamples: 1}, ok},
		{"dense beside a wrong frame", Update{Weights: dense(-1, 0), Frame: frame(dim + 1)}, ok},
		{"nan head", Update{Weights: dense(0, math.NaN())}, telemetry.IntakeNonFinite},
		{"+inf", Update{Weights: dense(3, math.Inf(1))}, telemetry.IntakeNonFinite},
		{"-inf tail", Update{Weights: dense(dim-1, math.Inf(-1))}, telemetry.IntakeNonFinite},
		{"short", Update{Weights: dense(-1, 0)[:dim-1]}, telemetry.IntakeDimension},
		{"short and non-finite", Update{Weights: dense(0, math.NaN())[:dim-1]}, telemetry.IntakeDimension},
		{"no vector", Update{NumSamples: 1}, telemetry.IntakeDimension},
		{"frame of another dim", Update{Frame: frame(dim + 1)}, telemetry.IntakeDimension},
		{"negative samples", Update{Weights: dense(-1, 0), NumSamples: -1}, telemetry.IntakeSamples},
		{"negative samples and non-finite", Update{Weights: dense(1, math.NaN()), NumSamples: -1}, telemetry.IntakeSamples},
	}
	for _, c := range cases {
		reason, admitted := Intake(c.u, dim)
		if admitted != (c.want == ok) || !admitted && reason != c.want {
			t.Errorf("%s: Intake = (%s, %v), want %s", c.name, reason.Name(), admitted, c.want.Name())
		}
	}
}

// TestIntakeAllocs: a warm round's intake — scanning every update and
// compacting out a refused one — allocates nothing, with telemetry nil and
// with it counting the refusal.
func TestIntakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const k, dim = 10, 1000
	round := make([]Update, k)
	for i := range round {
		round[i] = Update{ClientID: i, Weights: make([]float64, dim), NumSamples: 8}
	}
	round[3].Weights[dim-1] = math.NaN()
	updates := make([]Update, k)
	for _, tel := range []*telemetry.EngineTelemetry{nil, telemetry.NewEngineTelemetry(telemetry.NewRegistry(), nil, "")} {
		e := &Engine{Telemetry: tel}
		allocs := testing.AllocsPerRun(100, func() {
			copy(updates, round)
			if kept, _ := e.intake(updates, dim); len(kept) != k-1 {
				t.Fatalf("intake kept %d updates, want %d", len(kept), k-1)
			}
		})
		if allocs != 0 {
			t.Errorf("telemetry on=%v: a warm intake allocates %v times, want 0", tel != nil, allocs)
		}
	}
}
