package flnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/nn"
)

// BenchmarkHostedFederations runs N complete federations (tiny dataset,
// 2 clients each, 3 rounds, FedAvg) concurrently on one Host and one
// listener, clients included, and reports wall-clock per iteration plus a
// derived rounds/s throughput. Training is COMPUTE-BOUND: on a single-CPU
// machine N co-hosted tenants necessarily take ~N times the wall-clock of
// one, and the interesting number is the per-round cost the multiplexing
// layer adds on top — compare ns/op at tenants=1 against a plain Server
// (BenchmarkSingleTenantServer) and divide ns/op by tenants for the
// co-hosting overhead.
func BenchmarkHostedFederations(b *testing.B) {
	for _, tenants := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			const rounds = 3
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var tns []tenant
				for t := 0; t < tenants; t++ {
					tns = append(tns, tenant{
						id: fmt.Sprintf("bench-%d", t),
						cfg: ServerConfig{
							MinClients: 2, PerRound: 2, Rounds: rounds,
							RoundTimeout: 10 * time.Second, Seed: int64(t + 1),
						},
						agg:     defense.FedAvg{},
						genSeed: int64(40 + t),
					})
				}
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				host := NewHost()
				feds := make([]*Federation, tenants)
				data := make([]struct {
					train    *dataset.Dataset
					newModel func(rng *rand.Rand) *nn.Network
					shards   [][]int
				}, tenants)
				for t, tn := range tns {
					train, test, newModel, shards := tenantData(b, tn)
					fed, err := NewFederation(tn.id, tn.cfg, tn.agg, newModel, test)
					if err != nil {
						b.Fatal(err)
					}
					if err := host.Add(fed); err != nil {
						b.Fatal(err)
					}
					feds[t] = fed
					data[t].train, data[t].newModel, data[t].shards = train, newModel, shards
				}
				go func() { _ = host.Serve(lis) }()
				b.StartTimer()

				var wg sync.WaitGroup
				errs := make([]error, tenants)
				for t, fed := range feds {
					wg.Add(1)
					go func(t int, fed *Federation) {
						defer wg.Done()
						_, errs[t] = fed.Run()
					}(t, fed)
				}
				for t, tn := range tns {
					cw := runTenantClients(b, lis.Addr().String(), tn, data[t].train, data[t].newModel, data[t].shards)
					defer cw.Wait()
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				lis.Close()
			}
			b.ReportMetric(float64(rounds*tenants)*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// BenchmarkSingleTenantServer serves the same single federation through
// Server, a Host with one anonymous federation. Against
// BenchmarkHostedFederations/tenants=1 the delta is the Server wrapper alone.
func BenchmarkSingleTenantServer(b *testing.B) {
	const rounds = 3
	tn := tenant{
		cfg: ServerConfig{
			MinClients: 2, PerRound: 2, Rounds: rounds,
			RoundTimeout: 10 * time.Second, Seed: 1,
		},
		agg:     defense.FedAvg{},
		genSeed: 40,
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		train, test, newModel, shards := tenantData(b, tn)
		srv, err := NewServer(tn.cfg, tn.agg, newModel, test)
		if err != nil {
			b.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		done := make(chan error, 1)
		go func() {
			_, err := srv.Serve(lis)
			done <- err
		}()
		cw := runTenantClients(b, lis.Addr().String(), tn, train, newModel, shards)
		cw.Wait()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		lis.Close()
	}
	b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}
