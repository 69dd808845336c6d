package telemetry

// JSON snapshot tests: the typed /metrics.json surface behind the
// dashboard's fleet panel must render every instrument kind with
// deterministic ordering, and ServeOps must drain gracefully — a blocked
// streaming handler sees the base context cancel instead of a hard close.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestWriteJSONSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cells_total", "Completed cells.").Add(3)
	reg.Gauge("pool_in_use", "Busy workers.", Label{"worker", "w1"}).set(2)
	reg.Gauge("pool_in_use", "Busy workers.", Label{"worker", "w0"}).set(5)
	reg.GaugeFunc("threads", "Pool width.", func() float64 { return 8 })
	h := reg.Histogram("cell_seconds", "Cell wall time.")
	h.observe(1500 * time.Millisecond)
	h.observe(500 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Families []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels string   `json:"labels,omitempty"`
				Value  *float64 `json:"value,omitempty"`
				Count  *int64   `json:"count,omitempty"`
				Sum    *float64 `json:"sum,omitempty"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if len(snap.Families) != 4 {
		t.Fatalf("snapshot has %d families, want 4:\n%s", len(snap.Families), sb.String())
	}
	// Families sort by name; labeled series sort by rendered label set.
	names := make([]string, len(snap.Families))
	for i, f := range snap.Families {
		names[i] = f.Name
	}
	if names[0] != "cell_seconds" || names[1] != "cells_total" || names[2] != "pool_in_use" || names[3] != "threads" {
		t.Fatalf("family order = %v", names)
	}
	hist := snap.Families[0]
	if hist.Type != "histogram" || *hist.Series[0].Count != 2 || *hist.Series[0].Sum != 2 {
		t.Fatalf("histogram series = %+v", hist)
	}
	if *snap.Families[1].Series[0].Value != 3 {
		t.Fatalf("counter value = %v", *snap.Families[1].Series[0].Value)
	}
	gauges := snap.Families[2]
	if len(gauges.Series) != 2 || !strings.Contains(gauges.Series[0].Labels, `worker="w0"`) {
		t.Fatalf("labeled gauge series = %+v (want w0 before w1)", gauges.Series)
	}
	if *gauges.Series[0].Value != 5 || *gauges.Series[1].Value != 2 {
		t.Fatalf("gauge values = %v/%v", *gauges.Series[0].Value, *gauges.Series[1].Value)
	}
	if *snap.Families[3].Series[0].Value != 8 {
		t.Fatalf("gauge-func value = %v", *snap.Families[3].Series[0].Value)
	}

	// Deterministic: two renders are byte-identical.
	var sb2 strings.Builder
	if err := reg.WriteJSON(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatal("WriteJSON output not deterministic")
	}

	// A nil registry still renders a valid empty document.
	var sbNil strings.Builder
	if err := (*Registry)(nil).WriteJSON(&sbNil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sbNil.String()) != `{"families":[]}` {
		t.Fatalf("nil registry renders %q", sbNil.String())
	}
}

func TestOpsMuxServesMetricsJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "Liveness.").Inc()
	bound, shutdown, err := ServeOps("127.0.0.1:0", NewOpsMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	resp, err := http.Get("http://" + bound + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control %q", cc)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"up_total"`) {
		t.Fatalf("missing counter in %s", body)
	}
}

// TestServeOpsGracefulShutdown pins the drain contract: a streaming handler
// blocked on its request context must be released by shutdown (via the
// server's base context) and the whole drain must finish well inside the
// deadline, returning nil rather than a spurious close error.
func TestServeOpsGracefulShutdown(t *testing.T) {
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done() // exactly how the SSE handler waits
	})
	bound, shutdown, err := ServeOps("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + bound + "/hang")
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown with a draining subscriber: %v", err)
	}
	if elapsed := time.Since(start); elapsed > opsDrainTimeout {
		t.Fatalf("drain took %v, deadline %v", elapsed, opsDrainTimeout)
	}
	// The listener is really gone.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+bound+"/metrics", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("ops endpoint still serving after shutdown")
	}
}
