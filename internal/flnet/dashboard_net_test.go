package flnet

// Dashboard-over-sockets regression: the acceptance contract's second
// transport. A networked federation with the forensics endpoint served and
// its JSON actively polled must produce results bit-identical to the same
// fixed-seed federation with no observer at all.

import (
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/defense"
	"repro/internal/forensics"
	"repro/internal/telemetry"
)

func TestDashboardObservationBitExactOverSockets(t *testing.T) {
	tn := tenant{
		id: "dash",
		cfg: ServerConfig{
			MinClients:   2,
			PerRound:     2,
			Rounds:       3,
			RoundTimeout: 10 * time.Second,
			Seed:         9,
		},
		agg:     defense.FedAvg{},
		genSeed: 41,
		spec:    codec.Spec{},
	}
	baseline := runDedicated(t, tn)

	// Second run: same seeds, but every aggregation is observed, served
	// and polled while the rounds execute.
	col, err := forensics.NewCollector(forensics.Options{Defense: "fedavg", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	col.Mount(mux, "/forensics")
	httpAddr, shutdownHTTP, err := telemetry.ServeOps("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	// No keep-alive pool: http.DefaultClient can leave a dialed-but-unused
	// connection behind, which http.Server.Shutdown counts as active for 5 s
	// — longer than the endpoint's drain deadline, failing shutdownHTTP.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var hammer sync.WaitGroup
	for _, path := range []string{"/forensics/metrics", "/forensics/rounds?since=0"} {
		hammer.Add(1)
		go func(path string) {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("http://" + httpAddr + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(path)
	}

	train, test, newModel, shards := tenantData(t, tn)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cfg := tn.cfg
	cfg.Observer = col
	srv, err := NewServer(cfg, tn.agg, newModel, test)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *ServerResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := srv.Serve(lis)
		done <- out{res, err}
	}()
	anon := tn
	anon.id = ""
	wg := runTenantClients(t, lis.Addr().String(), anon, train, newModel, shards)
	wg.Wait()
	o := <-done
	if o.err != nil {
		t.Fatalf("observed server: %v", o.err)
	}
	close(stop)
	if err := shutdownHTTP(); err != nil {
		t.Fatalf("forensics endpoint shutdown: %v", err)
	}
	hammer.Wait()

	sameResult(t, "dashboard observation", baseline, o.res)
	if s := col.Summary(); s.Aggregations != tn.cfg.Rounds {
		t.Fatalf("collector audited %d aggregations, want %d", s.Aggregations, tn.cfg.Rounds)
	}
}
