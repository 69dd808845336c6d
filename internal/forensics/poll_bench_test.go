package forensics

// Dashboard polling bench: the engine-round cell under sustained polling
// (the ≤2% acceptance budget against the ForensicsOn baseline).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// BenchmarkEngineRoundsSustainedPolling vs BenchmarkEngineRoundsForensicsOn
// is the sustained-polling acceptance ratio (budget ≤2%): the ForensicsOn
// bench with the HTTP endpoint served and two consumers attached for the
// whole run — a metrics scraper and a cursor-carrying /rounds?since poller
// at 20× the embedded page's cadence.
func BenchmarkEngineRoundsSustainedPolling(b *testing.B) {
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
