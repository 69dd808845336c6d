package fl

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// runTinyTelemetry executes one tiny simulation (lossy codec on, so the
// encode phase and wire-size accounting run) with the given telemetry.
func runTinyTelemetry(t *testing.T, tel *telemetry.EngineTelemetry) *Result {
	t.Helper()
	tensor.SetWorkers(1)
	train, test, shards, newModel := tinySetup(t, 7)
	cfg := tinyConfig()
	cfg.Codec = codec.Spec{Quant: codec.Int8, TopK: 0.25, EF: true}
	cfg.Telemetry = tel
	sim, err := NewSimulation(cfg, train, test, shards, firstK(3), newModel, meanAggregator{reportSelection: true}, zeroAttack{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTelemetryOnOffBitIdentical locks in the telemetry discipline on the
// in-process transport: a fixed-seed run with full telemetry (metrics and
// tracer) is bit-identical to the same run with telemetry nil. Observation must never touch the RNG streams, the update
// set or the summation order.
func TestTelemetryOnOffBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(0)
	off := runTinyTelemetry(t, nil)
	if math.IsNaN(off.FinalAccuracy) {
		t.Fatal("reference run produced no evaluation")
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	on := runTinyTelemetry(t, telemetry.NewEngineTelemetry(reg, tr, ""))

	if !reflect.DeepEqual(on, off) {
		t.Fatalf("telemetry changed the result:\n got: %+v\nwant: %+v", on, off)
	}

	// The instrumented run must actually have recorded: rounds counted,
	// spans buffered, bytes attributed to the codec frames it encoded.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fl_rounds_total 6",
		`fl_phase_seconds_count{phase="aggregate"} 6`,
		"fl_codec_frames_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in metrics:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fl_codec_bytes_in_total 0\n") {
		t.Errorf("codec bytes not accounted:\n%s", out)
	}
	var trace strings.Builder
	if err := tr.WriteChrome(&trace); err != nil || !strings.Contains(trace.String(), `"ph":"X"`) {
		t.Errorf("tracer buffered no spans (err %v)", err)
	}
}

// staticTransport returns the same preallocated updates every round, so the
// allocation test measures the engine loop itself rather than training.
type staticTransport struct{ updates []Update }

func (s staticTransport) Collect(_ int, ids []int, _, _ []float64) ([]Update, error) {
	return s.updates[:len(ids)], nil
}

// reuseAggregator aggregates into a caller-owned buffer (no per-round
// allocation of its own).
type reuseAggregator struct{ out []float64 }

func (reuseAggregator) Name() string { return "reuse" }

func (a reuseAggregator) Aggregate(_ []float64, updates []Update) ([]float64, Selection, error) {
	for i := range a.out {
		a.out[i] = 0
	}
	for _, u := range updates {
		for i, w := range u.Weights {
			a.out[i] += w
		}
	}
	for i := range a.out {
		a.out[i] /= float64(len(updates))
	}
	return a.out, Selection{}, nil
}

// allocEngine builds a minimal engine over static stubs with the given
// round count and telemetry.
func allocEngine(rounds int, tel *telemetry.EngineTelemetry) (*Engine, []float64) {
	const dim = 32
	updates := make([]Update, 4)
	for i := range updates {
		w := make([]float64, dim)
		for j := range w {
			w[j] = float64(i + j)
		}
		updates[i] = Update{ClientID: i, Weights: w, NumSamples: 1}
	}
	eng := &Engine{
		TotalClients: 8,
		PerRound:     4,
		Rounds:       rounds,
		Seed:         3,
		Transport:    staticTransport{updates},
		Aggregator:   reuseAggregator{out: make([]float64, dim)},
		Telemetry:    tel,
	}
	return eng, make([]float64, dim)
}

// perRoundAllocs measures the marginal heap allocations of one engine round
// (total allocations of a long run minus a short run, per extra round), so
// fixed Run setup costs cancel out.
func perRoundAllocs(t *testing.T, tel *telemetry.EngineTelemetry) float64 {
	t.Helper()
	const short, long = 1, 201
	run := func(rounds int) float64 {
		eng, initial := allocEngine(rounds, tel)
		return testing.AllocsPerRun(10, func() {
			if _, _, err := eng.Run(initial); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(long) - run(short)) / float64(long-short)
}

// TestEngineTelemetryDisabledZeroAlloc pins the engine loop's disabled-path
// allocation budget: with Telemetry nil, a warm round performs only the
// engine's own bookkeeping allocations (selection sample, responder list,
// stats append). The bound would break if the instrumentation ever grew an
// allocating disabled path (a defer closure, a formatted span name); the
// companion instrument-layer proof of exactly zero is
// telemetry.TestDisabledTelemetryZeroAlloc.
func TestEngineTelemetryDisabledZeroAlloc(t *testing.T) {
	disabled := perRoundAllocs(t, nil)
	// The uninstrumented engine round allocates: sampler permutation (2),
	// responder append (1), result append amortization (<1). Anything past
	// 6 means the disabled telemetry path started allocating.
	if disabled > 6 {
		t.Errorf("disabled-telemetry round allocates %.2f times, budget 6", disabled)
	}

	reg := telemetry.NewRegistry()
	enabled := perRoundAllocs(t, telemetry.NewEngineTelemetry(reg, nil, ""))
	// Metrics-only telemetry is atomics all the way down: enabling it must
	// not add allocations either.
	if enabled > disabled+0.5 {
		t.Errorf("metrics-only telemetry allocates: %.2f/round enabled vs %.2f/round disabled", enabled, disabled)
	}
}

// BenchmarkEngineRoundTelemetry measures the telemetry overhead on the
// engine's round loop over static stubs (the disabled path's zero-alloc
// bound is TestEngineTelemetryDisabledZeroAlloc).
// The end-to-end overhead on a real training round is far smaller still,
// since client training dominates.
func BenchmarkEngineRoundTelemetry(b *testing.B) {
	bench := func(b *testing.B, tel *telemetry.EngineTelemetry) {
		eng, initial := allocEngine(100, tel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Run(initial); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { bench(b, nil) })
	b.Run("metrics", func(b *testing.B) {
		bench(b, telemetry.NewEngineTelemetry(telemetry.NewRegistry(), nil, ""))
	})
	b.Run("metrics+trace", func(b *testing.B) {
		bench(b, telemetry.NewEngineTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(0), ""))
	})
}

// BenchmarkSimulationRoundsTelemetry is BenchmarkSimulationRounds with full
// telemetry attached — the realistic overhead measurement (training and
// evaluation dominate; telemetry must stay within the 2% budget).
func BenchmarkSimulationRoundsTelemetry(b *testing.B) {
	sim := benchSetup(b, true)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	sim.cfg.Telemetry = telemetry.NewEngineTelemetry(reg, tr, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
