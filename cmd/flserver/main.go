// Command flserver runs the networked federation server: it waits for a
// population of TCP clients, drives the paper's round loop with the chosen
// robust-aggregation defense, evaluates the global model each round, and
// distributes the final weights.
//
// Example (three terminals):
//
//	flserver -addr :7070 -clients 8 -per-round 4 -rounds 10 -defense mkrum
//	flclient -addr localhost:7070 -role benign -shard 0 -of 6
//	flclient -addr localhost:7070 -role dfa-r
//
// Multi-tenant: -federations serves several independent federations over
// one listener, each with its own defense, round state and checkpoint.
// Clients pick theirs with -federation:
//
//	flserver -addr :7070 -federations alpha=mkrum,beta=refd -clients 4
//	flclient -addr localhost:7070 -federation alpha -role benign -shard 0 -of 4
//
// Observability: -ops-addr serves the ops endpoint — Prometheus metrics at
// /metrics with per-federation labels, pprof under /debug/pprof/, and the
// defense-decision audit JSON under /forensics/ (single-tenant) or
// /forensics/<id>/ (multi-tenant):
//
//	flserver -addr :7070 -federations alpha,beta -ops-addr :9090
//	curl localhost:9090/metrics                  # flnet_joins_total{federation="alpha"} …
//
// The embedded operator dashboard rides the same listener: -dash mounts it
// at /dash/ with one live tab per federation (polled decision audits,
// score histograms, fingerprint scatter) plus the fleet panel, and
// -dash-replay loads past audit journals or run stores into its
// time-travel/diff tab:
//
//	flserver -addr :7070 -federations alpha,beta -ops-addr :9090 -dash
//
// -trace and -trace-journal write every federation's round and phase spans
// and the host's join handshakes on exit, as in flsim:
//
//	flserver -addr :7070 -clients 8 -trace trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/flnet"
	"repro/internal/forensics"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

// tenant is one federation this process serves: the sole anonymous one
// (id "") or an entry of -federations.
type tenant struct{ id, defense string }

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("flserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	dsName := fs.String("dataset", "fashion-sim", "dataset spec (fashion-sim, cifar-sim, svhn-sim, tiny-sim)")
	defName := fs.String("defense", "mkrum", "defense, by the simulator's names: fedavg, median, trmean, krum, mkrum, bulyan, foolsgold, refd, refd-adaptive")
	clients := fs.Int("clients", 8, "population size to wait for")
	perRound := fs.Int("per-round", 4, "clients selected per round")
	rounds := fs.Int("rounds", 10, "federated rounds")
	fproxy := fs.Int("f", 2, "server's assumed attackers per round")
	refPerClass := fs.Int("ref-per-class", 20, "REFD reference samples per class")
	rejectX := fs.Int("reject", 2, "REFD rejections per round")
	timeout := fs.Duration("timeout", 30*time.Second, "per-round client deadline")
	handshake := fs.Duration("handshake-timeout", 5*time.Second, "per-connection join handshake deadline")
	acceptTimeout := fs.Duration("accept-timeout", 0, "overall join-phase deadline (0 = wait forever)")
	seed := fs.Int64("seed", 1, "random seed")
	checkpoint := fs.String("checkpoint", "", "path for atomic per-round global-model checkpoints (empty = off)")
	sampler := fs.String("sampler", "uniform", "per-round selection: uniform (K of N), bernoulli (per-client probability)")
	sampleRate := fs.Float64("sample-rate", 0, "bernoulli participation probability (0 = K/N)")
	dropout := fs.Float64("dropout", 0, "simulated per-selection dropout probability")
	straggler := fs.Float64("straggler", 0, "simulated per-selection deadline-miss probability")
	serverOpt := fs.String("server-opt", "plain", "server optimizer: plain, lr, fedavgm")
	serverLR := fs.Float64("server-lr", 0, "server learning rate for -server-opt lr/fedavgm (0 = 1)")
	serverMomentum := fs.Float64("server-momentum", 0, "FedAvgM velocity decay (0 = 0.9)")
	asyncBuffer := fs.Int("async-buffer", 0, "FedBuff-style async aggregation buffer size B (0 = synchronous)")
	asyncDelay := fs.Int("async-delay", 0, "max simulated update arrival delay in rounds for async mode (0 = 2)")
	var watch experiment.Watch
	watch.BindFlags(fs)
	fs.StringVar(&watch.AuditPath, "audit", "", "JSONL audit-journal path for per-round defense decisions and update fingerprints (empty = off; multi-tenant: one journal per federation, suffix -<id>)")
	codecToken := fs.String("codec", "", "update codec served to clients, as a codec spec token: raw, fp16, int8, optionally with ,topk=<frac> and ,ef — e.g. int8,topk=0.1,ef (empty = legacy dense updates only; legacy clients are always served)")
	federations := fs.String("federations", "", "serve several federations over one listener, as comma-separated id or id=defense entries, e.g. alpha=mkrum,beta=refd (empty = single-tenant; entries without =defense use -defense)")
	pendingJoins := fs.Int("pending-joins", 0, "admission control: per-federation bound on handshakes queued for admission; joins beyond it are rejected with a typed retryable error (0 = max(clients, 16))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	codecSpec, err := codec.ParseSpec(*codecToken)
	if err != nil {
		return err
	}
	// The scenario and defense flags share experiment.Config's normalization
	// and mapping, so flsim and flserver cannot drift. Weighted sampling needs
	// per-client shard sizes, which only the clients know in the networked
	// deployment, so it stays simulator-only.
	scfg := experiment.Config{
		Dataset:        *dsName,
		TotalClients:   *clients,
		PerRound:       *perRound,
		Sampler:        *sampler,
		SampleRate:     *sampleRate,
		DropoutProb:    *dropout,
		StragglerProb:  *straggler,
		ServerOpt:      *serverOpt,
		ServerLR:       *serverLR,
		ServerMomentum: *serverMomentum,
		AsyncBuffer:    *asyncBuffer,
		AsyncMaxDelay:  *asyncDelay,
	}
	if err := scfg.Normalize(); err != nil {
		return err
	}
	if scfg.Sampler == "weighted" {
		return fmt.Errorf("weighted sampling needs client shard sizes the networked server does not know; use uniform or bernoulli")
	}
	// Normalize reads a zero as "default"; these flags keep their meaning
	// (-f 0 assumes no attackers, -reject 0 rejects nobody).
	scfg.FProxy, scfg.RefPerClass, scfg.RejectX = *fproxy, *refPerClass, *rejectX

	tenants := []tenant{{defense: *defName}}
	title, forensicsAt := "fl server — "+*defName, "/forensics/"
	if *federations != "" {
		if tenants, err = parseFederations(*federations, *defName); err != nil {
			return err
		}
		title, forensicsAt = "fl host — "+*federations, "/forensics/<id>/"
	}
	ids := make([]string, len(tenants))
	for i, tn := range tenants {
		ids[i] = tn.id
	}
	watch.OnBound = func(bound string) {
		fmt.Fprintf(stdout, "flserver: ops endpoint at http://%s/metrics (forensics JSON under %s)\n", bound, forensicsAt)
		if watch.Dash {
			report.DashboardHint(stdout, bound)
		}
	}
	// One plane for the process, opened before any federation exists: it
	// owns the registry every tenant labels its instruments on, the
	// listener, and each tenant's collector. It closes
	// last; a drain failure is a real fault (a lost audit line, a request
	// that outlived the drain deadline), reported unless the run itself
	// already failed.
	plane, err := experiment.OpenPlane(watch, title, ids...)
	if err != nil {
		return err
	}
	defer plane.CloseInto(&retErr)

	spec, err := dataset.SpecByName(*dsName)
	if err != nil {
		return err
	}
	_, test := dataset.Generate(spec, *seed)
	newModel := experiment.NewModel(spec)
	// Every deployment is a Host: one anonymous federation, or one per
	// -federations entry.
	host := flnet.NewHost()
	host.HandshakeTimeout, host.Tracer = *handshake, plane.Tracer()
	feds := make([]*flnet.Federation, len(tenants))
	for i, tn := range tenants {
		tcfg := scfg
		tcfg.Defense = tn.defense
		agg, err := experiment.NewDefense(tcfg, test)
		if err != nil {
			return fmt.Errorf("federation %q: %w", tn.id, err)
		}
		cfg := flnet.ServerConfig{
			MinClients:     *clients,
			PerRound:       *perRound,
			Rounds:         *rounds,
			RoundTimeout:   *timeout,
			AcceptTimeout:  *acceptTimeout,
			PendingJoins:   *pendingJoins,
			Seed:           *seed,
			CheckpointPath: *checkpoint,
			DatasetName:    spec.Name,
			ModelName:      "paper-cnn",
			Scenario:       experiment.BuildScenario(scfg, nil),
			Codec:          codecSpec.String(),
			Metrics:        plane.Registry(),
			Tracer:         plane.Tracer(),
		}
		if tn.id != "" && *checkpoint != "" {
			cfg.CheckpointPath += "-" + tn.id
		}
		if plane != nil {
			// The networked server has no ground-truth Malicious flags, so
			// a watched server's collector provides decision auditing (who
			// was filtered, with what score and fingerprint) rather than
			// TPR/FPR joins.
			col, err := plane.Collector(tn.id, forensics.Options{Defense: agg.Name(), Seed: *seed})
			if err != nil {
				return fmt.Errorf("federation %q: %w", tn.id, err)
			}
			cfg.Observer = col
		}
		if feds[i], err = flnet.NewFederation(tn.id, cfg, agg, newModel, test); err != nil {
			return fmt.Errorf("federation %q: %w", tn.id, err)
		}
		if err := host.Add(feds[i]); err != nil {
			return err
		}
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer lis.Close()
	if *federations == "" {
		serveCodec := codecSpec.String()
		if serveCodec == "" {
			serveCodec = "none"
		}
		fmt.Fprintf(stdout, "flserver: listening on %s, waiting for %d clients (defense=%s dataset=%s codec=%s)\n",
			lis.Addr(), *clients, *defName, spec.Name, serveCodec)
	} else {
		for _, tn := range tenants {
			fmt.Fprintf(stdout, "flserver: federation %s (defense=%s)\n", tn.id, tn.defense)
		}
		fmt.Fprintf(stdout, "flserver: hosting %d federations on %s, waiting for %d clients each\n",
			len(feds), lis.Addr(), *clients)
	}
	return serveHost(lis, host, feds, stdout)
}

// parseFederations reads the -federations list: comma-separated id or
// id=defense entries; an entry without a defense takes fallback.
func parseFederations(list, fallback string) ([]tenant, error) {
	var tenants []tenant
	seen := map[string]bool{}
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, defName, _ := strings.Cut(entry, "=")
		id, defName = strings.TrimSpace(id), strings.TrimSpace(defName)
		if id == "" {
			return nil, fmt.Errorf("-federations entry %q has no federation id", entry)
		}
		if seen[id] {
			return nil, fmt.Errorf("-federations names federation %q twice", id)
		}
		seen[id] = true
		if defName == "" {
			defName = fallback
		}
		tenants = append(tenants, tenant{id: id, defense: defName})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("-federations lists no federations")
	}
	return tenants, nil
}

// serveHost runs every federation on host over lis: each is independent,
// with its own defense, round state, checkpoint file and audit journal,
// sharing the plane's one registry (federation="<id>" labels on a single
// /metrics) and one /forensics/<id>/ subtree each — the prefix list the
// dashboard turns into per-federation tabs.
func serveHost(lis net.Listener, host *flnet.Host, feds []*flnet.Federation, stdout io.Writer) error {
	served := make(chan error, 1)
	go func() { served <- host.Serve(lis) }()

	var wg sync.WaitGroup
	var out sync.Mutex // one federation's report at a time
	errs := make([]error, len(feds)+1)
	for i, fed := range feds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fed.Run()
			if err != nil {
				errs[i] = fmt.Errorf("federation %q: %w", fed.ID(), err)
				return
			}
			prefix := ""
			if fed.ID() != "" {
				prefix = fed.ID() + "  "
			}
			out.Lock()
			defer out.Unlock()
			printResult(stdout, prefix, res)
		}()
	}
	wg.Wait()
	// Closing the listener is what ends the accept loop; wait for it so no
	// handshake goroutine outlives the process's run.
	_ = lis.Close()
	if err := <-served; err != nil {
		errs[len(feds)] = fmt.Errorf("host: %w", err)
	}
	return errors.Join(errs...)
}

// printResult writes the per-round reports and final metrics, each line
// prefixed (multi-tenant runs prefix the federation ID so interleaved
// output stays attributable).
func printResult(w io.Writer, prefix string, res *flnet.ServerResult) {
	for _, rr := range res.Rounds {
		acc := "n/a"
		if !math.IsNaN(rr.Accuracy) {
			acc = fmt.Sprintf("%.4f", rr.Accuracy)
		}
		churn := ""
		if rr.Dropped+rr.Straggled > 0 {
			churn = fmt.Sprintf("  dropped %d  straggled %d", rr.Dropped, rr.Straggled)
		}
		fmt.Fprintf(w, "%sround %3d  selected %d  responded %d%s  accuracy %s\n",
			prefix, rr.Round+1, rr.Selected, rr.Responded, churn, acc)
	}
	fmt.Fprintf(w, "%sfinal accuracy %.4f (max %.4f)\n", prefix, res.FinalAccuracy, res.MaxAccuracy)
}
