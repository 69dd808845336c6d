package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("fl_rounds_total", "Completed rounds.", Label{Key: "federation", Value: "alpha"})
	c.Inc()
	c.Add(2)
	g := reg.Gauge("queue_depth", "Pending joins.")
	g.Set(7)
	g.Add(-3)
	h := reg.Histogram("fl_round_seconds", "Round duration.")
	h.Observe(1500 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	reg.GaugeFunc("pool_width", "Workers.", func() float64 { return 4 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE fl_rounds_total counter",
		`fl_rounds_total{federation="alpha"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 4",
		"# TYPE fl_round_seconds histogram",
		`fl_round_seconds_bucket{le="+Inf"} 2`,
		"fl_round_seconds_count 2",
		"pool_width 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Bucket counts are cumulative: 1.5ms lands at le=2.048ms? No —
	// bounds are 2^i µs: 1.5ms ≤ 2.048ms (i=11), 3ms ≤ 4.096ms (i=12).
	if !strings.Contains(out, `fl_round_seconds_bucket{le="0.002048"} 1`) {
		t.Errorf("1.5ms observation not in the 2.048ms bucket:\n%s", out)
	}
	if !strings.Contains(out, `fl_round_seconds_bucket{le="0.004096"} 2`) {
		t.Errorf("3ms observation not cumulative in the 4.096ms bucket:\n%s", out)
	}
	// Every line must be a comment or "name{labels} value" — a cheap
	// validity proxy for the exposition format.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registration returned a different instrument")
	}
	labelled := reg.Counter("x_total", "", Label{Key: "k", Value: "v"})
	if labelled == a {
		t.Fatal("distinct label sets must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a", "")
	g := reg.Gauge("b", "")
	h := reg.Histogram("c", "")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	reg.GaugeFunc("d", "", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry must render nothing: %q, %v", b.String(), err)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", Label{Key: "v", Value: "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped: %s", b.String())
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer(0)
	fed := tr.Track("federation/alpha")
	sp := tr.Start(fed, "round")
	tr.Start(fed, "select").End()
	sp.End()
	tr.Emit(tr.Track("host"), "drain", Nanos(), 0)

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	var complete, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("complete event without numeric ts: %v", ev)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 3 { // process_name + two thread_names
		t.Errorf("metadata events = %d, want 3", meta)
	}
}

func TestTracerJournalExport(t *testing.T) {
	tr := NewTracer(0)
	tr.Start(tr.Track("engine"), "eval").End()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.WriteJournal(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(string(data))
	if !strings.Contains(line, `"name":"eval"`) || !strings.Contains(line, `"track":"engine"`) {
		t.Errorf("journal line missing span fields: %s", line)
	}
}

func TestTracerBound(t *testing.T) {
	tr := NewTracer(2)
	track := tr.Track("t")
	for i := 0; i < 5; i++ {
		tr.Start(track, "s").End()
	}
	if tr.Len() != 2 {
		t.Errorf("buffered = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
}

// TestDisabledTelemetryZeroAlloc proves the zero-cost-when-disabled
// contract at the instrument layer: the full per-round sequence the engine
// executes against a nil EngineTelemetry — round span, every phase span,
// the distance-matrix record, the byte counters — allocates nothing.
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	var tel *EngineTelemetry
	allocs := testing.AllocsPerRun(100, func() {
		round := tel.Round()
		for p := Phase(0); p < phaseCount; p++ {
			sp := tel.Phase(p)
			sp.End()
			tel.Distance(sp, 1000)
		}
		tel.AddBytesIn(1024)
		tel.AddBytesOut(2048)
		tel.AddFrames(8)
		round.End()
	})
	if allocs != 0 {
		t.Errorf("disabled round instrumentation allocates %v times, want 0", allocs)
	}

	var sweep *SweepTelemetry
	allocs = testing.AllocsPerRun(100, func() {
		sweep.Cell("cell").End()
		sweep.Claim(false)
		sweep.Conflict()
		sweep.Adopt()
		_ = sweep.Cells()
		_ = sweep.Conflicts()
	})
	if allocs != 0 {
		t.Errorf("disabled sweep instrumentation allocates %v times, want 0", allocs)
	}
}

// TestConcurrentEmission exercises the registry and tracer from many
// goroutines (run under -race in CI's telemetry leg).
func TestConcurrentEmission(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fed := []string{"alpha", "beta"}[g%2]
			tel := NewEngineTelemetry(reg, tr, fed)
			for i := 0; i < 200; i++ {
				round := tel.Round()
				sp := tel.Phase(PhaseCollect)
				tel.AddBytesIn(64)
				sp.End()
				round.End()
			}
		}(g)
	}
	wg.Wait()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fl_rounds_total{federation="alpha"} 800`,
		`fl_rounds_total{federation="beta"} 800`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	if tr.Len() != 8*200*2 {
		t.Errorf("span count = %d, want %d", tr.Len(), 8*200*2)
	}
}

func TestEngineTelemetryHistograms(t *testing.T) {
	reg := NewRegistry()
	tel := NewEngineTelemetry(reg, nil, "")
	sp := tel.Phase(PhaseEval)
	sp.End()
	tel.Round().End()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fl_phase_seconds_count{phase="eval"} 1`) {
		t.Errorf("eval phase histogram not recorded:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "fl_round_seconds_count 1") {
		t.Errorf("round histogram not recorded:\n%s", b.String())
	}
}

// TestEngineTelemetryDistance: the distance-matrix time a rule reports is
// one defense_distance_seconds observation under the federation's label and
// one distance-matrix span on the federation's track, starting with the
// aggregate span it nests in; a rule that computed no matrix records
// nothing.
func TestEngineTelemetryDistance(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(0)
	tel := NewEngineTelemetry(reg, tr, "alpha")
	agg := tel.Phase(PhaseAggregate)
	agg.End()
	tel.Distance(agg, 2500)
	agg = tel.Phase(PhaseAggregate)
	agg.End()
	tel.Distance(agg, 0)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`defense_distance_seconds_count{federation="alpha"} 1`,
		`defense_distance_seconds_sum{federation="alpha"} 2.5e-06`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	tracks, events := tr.snapshot()
	var spans []event
	for _, ev := range events {
		if ev.name == "distance-matrix" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d distance-matrix spans, want 1", len(spans))
	}
	if sp, first := spans[0], events[0]; tracks[sp.track] != "federation/alpha" || sp.ts != first.ts || sp.dur != 2500 {
		t.Errorf("distance-matrix span %+v on track %q, want 2500 ns at the aggregate span's start %d on federation/alpha",
			sp, tracks[sp.track], first.ts)
	}
}
