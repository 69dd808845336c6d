package forensics

// Dashboard streaming benches: the broadcast fan-out at 0/1/4
// subscribers, end-to-end SSE delivery latency over a real HTTP
// connection, and the engine-round cell under sustained polling (the ≤2%
// acceptance budget against the ForensicsOn baseline).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// benchBroadcast measures broadcastLocked with n attached subscribers whose
// queues are never drained — steady-state drop-oldest, the worst case for
// the fan-out (every send walks the full shed-retry path).
func benchBroadcast(b *testing.B, n int) {
	c, err := NewCollector(Options{Defense: "bench", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	global, updates, sel := benchRound(50, 100)
	c.ObserveAggregation(0, global, updates, sel)
	ra := c.Rounds()[0]
	for i := 0; i < n; i++ {
		_, _, cancel := c.Subscribe(0, 8)
		defer cancel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mu.Lock()
		c.broadcastLocked(ra)
		c.mu.Unlock()
	}
}

func BenchmarkBroadcastSubscribers0(b *testing.B) { benchBroadcast(b, 0) }
func BenchmarkBroadcastSubscribers1(b *testing.B) { benchBroadcast(b, 1) }
func BenchmarkBroadcastSubscribers4(b *testing.B) { benchBroadcast(b, 4) }

// BenchmarkSSEDeliveryLatency measures one aggregation's end-to-end trip:
// ObserveAggregation on the engine side → SSE frame parsed off a real HTTP
// connection. Per-op time IS the delivery latency.
func BenchmarkSSEDeliveryLatency(b *testing.B) {
	c, err := NewCollector(Options{Defense: "bench", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/forensics/stream")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	global, updates, sel := benchRound(50, 100)
	readFrame := func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				b.Fatal(err)
			}
			if line == "\n" {
				return
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveAggregation(i, global, updates, sel)
		readFrame()
	}
}

// benchPolledSim is the sustained-consumer engine cell: the ForensicsOn
// bench with the HTTP endpoint served and concurrent consumers attached for
// the whole run — a metrics scraper and a cursor-carrying /rounds?since
// poller at 20× the embedded page's cadence, plus (when sse is set) a
// persistent SSE subscriber receiving every round event. Served via
// telemetry.ServeOps so shutdown cancels the open SSE request (httptest.Server.Close
// would block on it forever).
func benchPolledSim(b *testing.B, sse bool) {
	col, err := NewCollector(Options{Defense: "mkrum", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sim := benchSim(b, col)
	addr, shutdownHTTP, err := telemetry.ServeOps("127.0.0.1:0", mounted(col))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	// The embedded page polls at 1 s; 50 ms here is 20× more aggressive.
	const pollEvery = 50 * time.Millisecond
	hammer.Add(1)
	go func() { // metrics scraper
		defer hammer.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			resp, err := http.Get("http://" + addr + "/forensics/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	hammer.Add(1)
	go func() { // cursor-carrying incremental poller, as the page's JS does
		defer hammer.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		since := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			resp, err := http.Get(fmt.Sprintf("http://%s/forensics/rounds?since=%d", addr, since))
			if err != nil {
				continue
			}
			var env struct {
				Cursor int `json:"cursor"`
			}
			if json.NewDecoder(resp.Body).Decode(&env) == nil {
				since = env.Cursor
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if sse {
		hammer.Add(1)
		go func() { // persistent SSE subscriber; drains until shutdown cancels
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/forensics/stream")
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	if err := shutdownHTTP(); err != nil {
		b.Fatal(err)
	}
	hammer.Wait()
}

// BenchmarkEngineRoundsSustainedPolling vs BenchmarkEngineRoundsForensicsOn
// is the sustained-polling acceptance ratio (budget ≤2%): HTTP consumers
// polling for the whole run, no SSE subscriber.
func BenchmarkEngineRoundsSustainedPolling(b *testing.B) { benchPolledSim(b, false) }

// BenchmarkEngineRoundsDashboardStreamed adds the persistent SSE subscriber:
// every aggregation is marshaled and pushed as a live event. The delta over
// SustainedPolling is the per-event streaming cost — a fixed per-round price
// (~µs), which only looks large against this cell's ~2ms artificial rounds.
func BenchmarkEngineRoundsDashboardStreamed(b *testing.B) { benchPolledSim(b, true) }
