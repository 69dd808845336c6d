package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestMedianQuartilesPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Reference values are Python's statistics.quantiles(v, n=4).
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles 1..4 = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v, want 7, 7", q1, q3)
	}
	v := []float64{15, 20, 35, 40, 50}
	for p, want := range map[float64]float64{30: 20, 40: 20, 50: 35, 90: 50, 100: 50} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile %v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "flnet", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "nn", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Layer: "nn", StartNs: 30, EndNs: 60},       // overlaps span 2
		{ID: 4, Parent: 1, Layer: "defense", StartNs: 80, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 3, Layer: "tensor", StartNs: 35, EndNs: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 20, 4: 40, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer := layerSelfSeconds(spans)
	if got := byLayer["nn"]; math.Abs(got-50e-9) > 1e-15 {
		t.Errorf("nn self seconds = %v, want 50e-9", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.timed(0, "fl", "select", "", 0, func(id int) { ran = id == 0 })
	if !ran || tr.snapshot() != nil {
		t.Error("nil tracer must run the function and keep no span")
	}
	tr = newTracer("w")
	tr.timed(0, "fl", "collect", "cell", 3, func(parent int) {
		tr.timed(parent, "nn", "train", "cell", 3, func(int) {})
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Workload != "w" || spans[0].EndNs < spans[1].EndNs {
		t.Errorf("unexpected spans %+v", spans)
	}
}

func TestCountingConnCountsServerSide(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	var c netCounters
	lis := countingListener{Listener: inner, c: &c}
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("hello")); err != nil {
			done <- err
			return
		}
		buf := make([]byte, 3)
		_, err = io.ReadFull(conn, buf)
		done <- err
	}()
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	before := c.snapshot()
	if _, err := conn.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := c.snapshot()
	if got.readBytes != 5 || got.writeBytes != 3 || got.writes != 1 || got.reads < 1 {
		t.Errorf("counters = %+v, want 5 bytes read, 3 bytes in 1 write", got)
	}
	if d := got.minus(before); d.writeBytes != 3 || d.readBytes != 0 {
		t.Errorf("difference = %+v, want only the 3 written bytes", d)
	}
}

func TestVerdict(t *testing.T) {
	lowerIsBetter := metricDecl{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higherIsBetter := metricDecl{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(d metricDecl, v float64) summary { return summarize(d, []float64{v * 0.99, v, v * 1.01}) }
	noisy := summarize(lowerIsBetter, []float64{5, 10, 15})
	cases := []struct {
		a, b summary
		want string
	}{
		{steady(lowerIsBetter, 10), steady(lowerIsBetter, 10.5), "unchanged"},
		{steady(lowerIsBetter, 10), steady(lowerIsBetter, 11.5), "worse"},
		{steady(lowerIsBetter, 10), steady(lowerIsBetter, 8), "better"},
		{steady(higherIsBetter, 10), steady(higherIsBetter, 8), "worse"},
		{steady(higherIsBetter, 10), steady(higherIsBetter, 12), "better"},
		{noisy, steady(lowerIsBetter, 10), "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.a.Better, got, c.want)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

func names(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSchemaMatchesBenchmarkJSON: the names BENCHMARK.json declares are the
// names the harness emits, none missing and none undeclared.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkDecls := func(kind string, got, want []metricDecl, bounded bool) {
		if g, w := strings.Join(names(got), " "), strings.Join(names(want), " "); g != w {
			t.Errorf("%s names differ:\nBENCHMARK.json: %s\nharness:        %s", kind, g, w)
		}
		harness := declByName(want)
		for _, d := range got {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (unit %q) is malformed or repeated", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if h := harness[d.Name]; h != d {
				t.Errorf("%s metric %q: BENCHMARK.json says %+v, harness %+v", kind, d.Name, d, h)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	checkDecls("end-to-end", doc.EndToEnd, endToEnd, true)
	checkDecls("per-layer", doc.PerLayer, perLayer, false)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

// TestSmoke runs every workload at tiny shapes through the untraced and the
// traced path, in this process.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := childOpts{workload: w.name, seed: 7, seconds: 0.05, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := measure(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if res.SetupS <= 0 || res.WarmDigest == "" || len(res.Passes) == 0 {
				t.Errorf("%s trace=%t: incomplete result %+v", w.name, trace, res)
			}
			for _, ps := range res.Passes {
				if ps.Rounds == 0 || ps.Attempted == 0 || ps.Failed != 0 || ps.WallS <= 0 {
					t.Errorf("%s trace=%t: bad pass %+v", w.name, trace, ps)
				}
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%t: check %s failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if !trace {
				continue
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.PerLayer), len(perLayer))
			}
			declared := declByName(perLayer)
			for name, v := range res.PerLayer {
				if _, ok := declared[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %q = %v is undeclared or not finite", w.name, name, v)
				}
			}
			inRun := "fl.replay_coverage"
			if w.socket != nil {
				inRun = "flnet.downlink_bytes_per_round"
			}
			if res.PerLayer[inRun] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, inRun, res.PerLayer[inRun])
			}
			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var first span
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Workload != w.name || len(lines) < 4 {
				t.Errorf("%s: trace file has %d lines, first %+v (%v)", w.name, len(lines), first, err)
			}
		}
	}
}

// TestProbesFillDeclaredMetrics runs every probe once; about ten seconds.
func TestProbesFillDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("probes take about ten seconds")
	}
	into := make(map[string]float64)
	runProbes(1, into)
	declared := declByName(perLayer)
	for name, v := range into {
		if _, ok := declared[name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("probe %q = %v is undeclared or not positive", name, v)
		}
	}
	if into["codec.wire_bytes_per_update"] >= 8*10000 {
		t.Errorf("compressed update is %v bytes, not smaller than dense", into["codec.wire_bytes_per_update"])
	}
}
