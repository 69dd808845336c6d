package fl

// Schedule, failure and pool tests of the overlapped round: an attack that
// reads no benign update crafts beside Collect on a helper slot, an oracle
// after it, and neither way leaks a goroutine or a slot.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// stuck bounds every wait on an event that a broken schedule would never
// deliver, so such a schedule fails the test instead of hanging it.
const stuck = 30 * time.Second

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(stuck):
		t.Errorf("timed out waiting for %s", what)
	}
}

// gateTransport answers every Collect with one constant update per client,
// after waiting for gate (nil: no wait), and publishes how many rounds'
// Collects have returned.
type gateTransport struct {
	t        *testing.T
	gate     func() <-chan struct{}
	err      error
	returned atomic.Int64
}

func (g *gateTransport) Collect(round int, ids []int, global, _ []float64) ([]Update, error) {
	if g.gate != nil {
		await(g.t, "the craft to start beside Collect", g.gate())
	}
	updates := make([]Update, len(ids))
	for i, id := range ids {
		w := make([]float64, len(global))
		for j := range w {
			w[j] = float64(id)
		}
		updates[i] = Update{ClientID: id, Weights: w, NumSamples: 1}
	}
	g.returned.Store(int64(round) + 1)
	return updates, g.err
}

// probeAttack records, per Craft call, what it saw: whether Collect had
// returned, how many benign updates the context carried, and how many
// helper slots were held. A non-nil boom makes the craft panic with it.
type probeAttack struct {
	tr      *gateTransport
	entered chan struct{}
	boom    any

	afterCollect []bool
	benign       []int
	slots        []int
}

func (*probeAttack) Name() string { return "probe" }

func (a *probeAttack) Craft(ctx *AttackContext) ([][]float64, error) {
	a.afterCollect = append(a.afterCollect, a.tr.returned.Load() > int64(ctx.Round))
	a.slots = append(a.slots, tensor.InUse())
	if ctx.BenignUpdates == nil {
		a.benign = append(a.benign, -1)
	} else {
		a.benign = append(a.benign, len(ctx.BenignUpdates))
	}
	a.entered <- struct{}{}
	if a.boom != nil {
		panic(a.boom)
	}
	out := make([][]float64, ctx.NumAttackers)
	for i := range out {
		out[i] = make([]float64, len(ctx.Global))
		out[i][0] = ctx.Rng.Float64()
	}
	return out, nil
}

// oracleProbe is probeAttack declaring that it reads the benign updates.
type oracleProbe struct{ *probeAttack }

func (oracleProbe) ReadsBenignUpdates() {}

const probeRounds = 3

// probeEngine selects all 8 clients every round, 3 of them attackers, so
// every round crafts.
func probeEngine(tr *gateTransport, atk Attack) *Engine {
	return &Engine{
		TotalClients: 8, PerRound: 8, Rounds: probeRounds, Seed: 5,
		Transport: tr, Aggregator: meanAggregator{reportSelection: true},
		Attack: atk, IsMalicious: func(id int) bool { return id < 3 }, TotalAttackers: 3,
	}
}

func newProbe(tr *gateTransport) *probeAttack {
	// Buffered to the run's craft count: nothing has to drain it.
	return &probeAttack{tr: tr, entered: make(chan struct{}, probeRounds)}
}

// TestCraftSchedule pins who crafts when. With a free slot a data-free
// attack's Craft is entered while Collect is still blocked — the transport
// here returns only once it has been — holds exactly one slot and sees no
// benign update; an oracle's is entered only after Collect returned, on the
// engine goroutine, with all five benign updates. With one worker nothing
// overlaps. The schedule changes no number: all four runs end on the same
// weights.
func TestCraftSchedule(t *testing.T) {
	defer tensor.SetWorkers(0)
	var want []float64
	for _, tc := range []struct {
		name            string
		workers         int
		oracle, overlap bool
	}{
		{"data-free/2-workers", 2, false, true},
		{"data-free/1-worker", 1, false, false},
		{"oracle/2-workers", 2, true, false},
		{"oracle/1-worker", 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tensor.SetWorkers(tc.workers)
			tr := &gateTransport{t: t}
			probe := newProbe(tr)
			var atk Attack = probe
			if tc.oracle {
				atk = oracleProbe{probe}
			}
			if tc.overlap {
				tr.gate = func() <-chan struct{} { return probe.entered }
			}
			_, final, err := probeEngine(tr, atk).Run(make([]float64, 4))
			if err != nil {
				t.Fatal(err)
			}
			benign, slots := -1, 0
			if tc.oracle {
				benign = 5
			}
			if tc.overlap {
				slots = 1
			}
			for r := 0; r < probeRounds; r++ {
				if len(probe.afterCollect) != probeRounds {
					t.Fatalf("crafted %d times in %d rounds", len(probe.afterCollect), probeRounds)
				}
				if probe.afterCollect[r] == tc.overlap {
					t.Errorf("round %d: craft entered after Collect returned = %v, want %v", r, probe.afterCollect[r], !tc.overlap)
				}
				if probe.benign[r] != benign {
					t.Errorf("round %d: craft saw %d benign updates (-1: nil), want %d", r, probe.benign[r], benign)
				}
				if probe.slots[r] != slots {
					t.Errorf("round %d: %d helper slots held during the craft, want %d", r, probe.slots[r], slots)
				}
			}
			if want == nil {
				want = final
			} else if !reflect.DeepEqual(final, want) {
				t.Errorf("final weights %v differ from the first schedule's %v", final, want)
			}
			if n := tensor.InUse(); n != 0 {
				t.Errorf("%d helper slots still held after Run", n)
			}
		})
	}
}

// panicValue runs fn and returns what it panicked with, nil if it did not.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestCraftFailuresSurfaceOnEngineGoroutine runs every way a craft can go
// wrong — a wrong vector count, an error, a panic — and a failing
// transport, each with the craft beside Collect (2 workers) and inline (1
// worker): the error or panic reaches Run's caller with the same text
// either way, and when Run has returned no goroutine it started is left and
// no slot is held, so nothing can touch the attack stream afterwards. A
// wrong vector length is no failure: the intake refuses those updates and
// the run ends normally, beside or inline.
func TestCraftFailuresSurfaceOnEngineGoroutine(t *testing.T) {
	defer tensor.SetWorkers(0)
	collectErr := errors.New("transport down")
	for _, tc := range []struct {
		name      string
		attack    func(*probeAttack) Attack
		transport error
		want      string
	}{
		{"wrong-count", func(*probeAttack) Attack { return brokenAttack{count: 99} },
			nil, "round 0: attack returned 99 vectors for 3 attackers"},
		{"wrong-length", func(*probeAttack) Attack { return shortAttack{} },
			nil, "ok"},
		{"attack-error", func(*probeAttack) Attack { return errorAttack{} },
			nil, "round 0: attack error: synthesizer exploded"},
		{"craft-panic", func(p *probeAttack) Attack { p.boom = "generator diverged"; return p },
			nil, "panic: generator diverged"},
		{"collect-error", func(p *probeAttack) Attack { return p },
			collectErr, "round 0: transport down"},
	} {
		for _, workers := range []int{2, 1} {
			t.Run(tc.name+map[int]string{1: "/inline", 2: "/beside"}[workers], func(t *testing.T) {
				tensor.SetWorkers(workers)
				tr := &gateTransport{t: t, err: tc.transport}
				probe := newProbe(tr)
				atk := tc.attack(probe)
				if atk == Attack(probe) && workers == 2 {
					// Hold Collect until the craft is in flight, so a Run that
					// returned on Collect's error without waiting would leak it.
					tr.gate = func() <-chan struct{} { return probe.entered }
				}
				// A bystander that exits while Run is on, as an earlier
				// test's helper still on its way out may: the leak check
				// below must neither count it nor miss a leak because of it.
				bystander := make(chan struct{})
				go func() { <-bystander }()
				before := liveGoroutines()
				close(bystander)
				var err error
				got := "ok"
				if v := panicValue(func() { _, _, err = probeEngine(tr, atk).Run(make([]float64, 4)) }); v != nil {
					got = "panic: " + v.(string)
				} else if err != nil {
					got = err.Error()
				}
				if got != tc.want {
					t.Errorf("Run ended with %q, want %q", got, tc.want)
				}
				if tc.transport != nil && !errors.Is(err, collectErr) {
					t.Errorf("Collect's error is not wrapped: %v", err)
				}
				// The helper has signalled the engine but may still be on its
				// way out; it is gone within a few scheduler turns.
				leaked := startedSince(before)
				for end := time.Now().Add(stuck); len(leaked) > 0 && time.Now().Before(end); leaked = startedSince(before) {
					runtime.Gosched()
				}
				if len(leaked) > 0 {
					t.Errorf("goroutines started during Run are still running:\n%s", strings.Join(leaked, "\n\n"))
				}
				if n := tensor.InUse(); n != 0 {
					t.Errorf("%d helper slots still held after Run", n)
				}
				if tc.transport != nil && workers == 2 && len(probe.afterCollect) != 1 {
					t.Errorf("the overlapped craft ran %d times before Collect failed, want 1", len(probe.afterCollect))
				}
			})
		}
	}
}

// liveGoroutines maps the ID of every live goroutine to its stack.
func liveGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	live := make(map[string]string)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		live[id] = g
	}
	return live
}

// startedSince returns the stacks of the live goroutines not in before.
// Goroutine IDs are never reused, so one that exited since hides none that
// started.
func startedSince(before map[string]string) []string {
	var started []string
	for id, g := range liveGoroutines() {
		if _, ok := before[id]; !ok {
			started = append(started, g)
		}
	}
	return started
}

// hookSource calls hook(n) on the nth Shard call, on the goroutine of the
// replica about to train that client.
type hookSource struct {
	Shards
	calls atomic.Int64
	hook  func(n int)
}

func (h *hookSource) Shard(id int) []int {
	h.hook(int(h.calls.Add(1)))
	return h.Shards.Shard(id)
}

// TestCollectPoolIsElastic holds the one helper slot of a 2-worker budget
// when Collect starts — as the round's craft does — and gives it back
// while the second client trains. The third client's training then waits
// for a fourth to start beside it, which only a second replica, started
// mid-Collect on the returned slot, can do. Every update must still land
// in its selection slot, bit-equal to a one-worker Collect.
func TestCollectPoolIsElastic(t *testing.T) {
	defer tensor.SetWorkers(0)
	train, test, shards, newModel := tinySetup(t, 11)
	cfg := tinyConfig()
	cfg.Parallel = true
	ids := []int{7, 2, 9, 4, 0, 11}
	collect := func(src ClientSource) []Update {
		sim, err := NewSimulation(cfg, train, test, src, nil, newModel, meanAggregator{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		updates, err := sim.Collect(0, ids, sim.GlobalWeights(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return updates
	}
	tensor.SetWorkers(1)
	want := collect(shards)

	tensor.SetWorkers(2)
	var craft sync.WaitGroup
	release, second := make(chan struct{}), make(chan struct{})
	if !tensor.TryGo(&craft, func() { <-release }) {
		t.Fatal("no free helper slot at the start of the test")
	}
	got := collect(&hookSource{Shards: shards, hook: func(n int) {
		switch n {
		case 2:
			close(release)
			craft.Wait()
		case 3:
			await(t, "a second replica to start on the returned slot", second)
		case 4:
			close(second)
		}
	}})
	if !reflect.DeepEqual(got, want) {
		t.Error("updates of the elastic Collect differ from the one-worker Collect's")
	}
	for i, u := range got {
		if u.ClientID != ids[i] {
			t.Errorf("slot %d holds client %d's update, want client %d's", i, u.ClientID, ids[i])
		}
	}
	if n := tensor.InUse(); n != 0 {
		t.Errorf("%d helper slots still held after Collect", n)
	}
}
