package flnet

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/telemetry"
)

// TestTelemetryOnOffBitIdenticalOverSockets locks in the telemetry
// discipline on the socket transport, under co-hosting and concurrency in
// one go: two federations share one Host, one metrics registry and one
// tracer (so span emission is exercised concurrently — the CI -race leg
// runs this test), and each must still produce results bit-identical to
// its dedicated, telemetry-free baseline. The shared registry must come
// out with per-federation labelled series.
func TestTelemetryOnOffBitIdenticalOverSockets(t *testing.T) {
	tenants := testTenants()
	dedicated := make([]*ServerResult, len(tenants))
	for i, tn := range tenants {
		dedicated[i] = runDedicated(t, tn) // telemetry off: the reference
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)

	for i := range tenants {
		tenants[i].cfg.Metrics = reg
		tenants[i].cfg.Tracer = tr
	}
	for i, res := range runHosted(t, tr, tenants...) {
		sameResult(t, "tenant "+tenants[i].id+" with telemetry", dedicated[i], res)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	metrics := b.String()
	for _, want := range []string{
		`fl_rounds_total{federation="alpha"} 3`,
		`fl_rounds_total{federation="beta"} 4`,
		`flnet_joins_total{federation="alpha"} 3`,
		`flnet_joins_total{federation="beta"} 2`,
		`flnet_pending_joins{federation="alpha"} 0`,
		`fl_phase_seconds_count{federation="beta",phase="aggregate"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %q in shared registry:\n%s", want, metrics)
		}
	}
	// The fp16 tenant's updates arrive as codec frames; the legacy tenant's
	// as dense weights. Both must have been byte-accounted.
	for _, fed := range []string{"alpha", "beta"} {
		if strings.Contains(metrics, `fl_codec_bytes_in_total{federation="`+fed+`"} 0`) {
			t.Errorf("federation %s received no accounted bytes:\n%s", fed, metrics)
		}
	}
	var trace strings.Builder
	if err := tr.WriteChrome(&trace); err != nil || !strings.Contains(trace.String(), `"ph":"X"`) {
		t.Errorf("tracer buffered no spans (err %v)", err)
	}
}

// TestDistanceTelemetryPerFederation: the distance-matrix time rides on each
// federation's own engine instruments, so two co-hosted mKrum federations
// sharing one registry each report one defense_distance_seconds observation
// per aggregation under their own federation label, a co-hosted median
// federation (whose rule computes no matrix) reports none, and no
// unlabelled host-wide series exists.
func TestDistanceTelemetryPerFederation(t *testing.T) {
	alpha := testTenants()[0] // mkrum, 3 rounds
	gamma := alpha
	gamma.id, gamma.cfg.Rounds, gamma.cfg.Seed, gamma.genSeed = "gamma", 2, 13, 17
	delta := alpha
	delta.id, delta.agg, delta.genSeed = "delta", defense.Median{}, 29
	tenants := []tenant{alpha, gamma, delta}
	reg := telemetry.NewRegistry()
	for i := range tenants {
		tenants[i].cfg.Metrics = reg
	}
	results := runHosted(t, nil, tenants...)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	metrics := b.String()
	for i, tn := range tenants {
		aggs := 0
		for _, rr := range results[i].Rounds {
			aggs += rr.Aggregations
		}
		if _, median := tn.agg.(defense.Median); median {
			aggs = 0
		} else if aggs == 0 {
			t.Fatalf("tenant %q never aggregated", tn.id)
		}
		want := fmt.Sprintf("defense_distance_seconds_count{federation=%q} %d\n", tn.id, aggs)
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %q in shared registry:\n%s", want, metrics)
		}
	}
	if regexp.MustCompile(`(?m)^defense_distance_seconds_count `).MatchString(metrics) {
		t.Errorf("an unlabelled distance series merges the tenants:\n%s", metrics)
	}
}
