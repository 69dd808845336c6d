// Command flserver runs the networked federation server: it waits for a
// population of TCP clients, drives the paper's round loop with the chosen
// robust-aggregation defense, evaluates the global model each round, and
// distributes the final weights.
//
// It parses flsim's run flags (experiment.Config.BindFlags), so one
// argument list names one run for flsim, flserver and each flclient, and
// the clients play the simulator's clients. Example (a shell per line):
//
//	flserver -addr :7070 -attack dfa-r -clients 10 -per-round 10 -rounds 10
//	flclient -addr localhost:7070 -attack dfa-r -clients 10 -per-round 10 -rounds 10   # ten times
//
// Multi-tenant: -federations serves several independent federations over
// one listener, each with its own defense, round state and checkpoint.
// Clients pick theirs with -federation:
//
//	flserver -addr :7070 -federations alpha=mkrum,beta=refd -clients 4 -per-round 4
//	flclient -addr localhost:7070 -federation alpha -clients 4 -per-round 4
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
//	flserver -addr :7070 -clients 8 -per-round 4 -trace trace.json
package main

import (
	"cmp"
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
	var cfg experiment.Config
	cfg.BindFlags(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-round client deadline")
	handshake := fs.Duration("handshake-timeout", 5*time.Second, "per-connection join handshake deadline")
	acceptTimeout := fs.Duration("accept-timeout", 0, "overall join-phase deadline (0 = wait forever)")
	checkpoint := fs.String("checkpoint", "", "path for atomic per-round global-model checkpoints (empty = off)")
	var watch experiment.Watch
	watch.BindFlags(fs)
	fs.StringVar(&watch.AuditPath, "audit", "", "JSONL audit-journal path for per-round defense decisions and update fingerprints (empty = off; multi-tenant: one journal per federation, suffix -<id>)")
	federations := fs.String("federations", "", "serve several federations over one listener, as comma-separated id or id=defense entries, e.g. alpha=mkrum,beta=refd (empty = single-tenant; entries without =defense use -defense)")
	pendingJoins := fs.Int("pending-joins", 0, "admission control: per-federation bound on handshakes queued for admission; joins beyond it are rejected with a typed retryable error (0 = max(clients, 16))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.Normalize(); err != nil {
		return err
	}
	// Weighted sampling needs per-client shard sizes, which only the
	// clients hold in the networked deployment.
	if cfg.Sampler == "weighted" {
		return fmt.Errorf("weighted sampling needs client shard sizes the networked server does not know; use uniform or bernoulli")
	}
	codecSpec := cfg.CodecSpec()

	tenants := []tenant{{defense: cfg.Defense}}
	title, forensicsAt := "fl server — "+cfg.Defense, "/forensics/"
	if *federations != "" {
		var err error
		if tenants, err = parseFederations(*federations, cfg.Defense); err != nil {
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

	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return err
	}
	_, test := dataset.Generate(spec, cfg.Seed)
	newModel := experiment.NewModel(spec)
	// Every deployment is a Host: one anonymous federation, or one per
	// -federations entry.
	host := flnet.NewHost()
	host.HandshakeTimeout, host.Tracer = *handshake, plane.Tracer()
	feds := make([]*flnet.Federation, len(tenants))
	for i, tn := range tenants {
		tcfg := cfg
		tcfg.Defense = tn.defense
		agg, err := experiment.NewDefense(tcfg, test)
		if err != nil {
			return fmt.Errorf("federation %q: %w", tn.id, err)
		}
		scfg := flnet.ServerConfig{
			MinClients:     cfg.TotalClients,
			PerRound:       cfg.PerRound,
			Rounds:         cfg.Rounds,
			RoundTimeout:   *timeout,
			AcceptTimeout:  *acceptTimeout,
			PendingJoins:   *pendingJoins,
			EvalLimit:      cfg.EvalLimit,
			Seed:           cfg.Seed,
			CheckpointPath: *checkpoint,
			DatasetName:    spec.Name,
			ModelName:      "paper-cnn",
			Scenario:       experiment.BuildScenario(cfg, nil),
			Codec:          codecSpec.String(),
			Metrics:        plane.Registry(),
			Tracer:         plane.Tracer(),
		}
		if tn.id != "" && *checkpoint != "" {
			scfg.CheckpointPath += "-" + tn.id
		}
		if plane != nil {
			// The networked server has no ground-truth Malicious flags, so
			// a watched server's collector provides decision auditing (who
			// was filtered, with what score and fingerprint) rather than
			// TPR/FPR joins.
			col, err := plane.Collector(tn.id, forensics.Options{Defense: agg.Name(), Seed: cfg.Seed})
			if err != nil {
				return fmt.Errorf("federation %q: %w", tn.id, err)
			}
			scfg.Observer = col
		}
		if feds[i], err = flnet.NewFederation(tn.id, scfg, agg, newModel, test); err != nil {
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
		fmt.Fprintf(stdout, "flserver: listening on %s, waiting for %d clients (defense=%s dataset=%s codec=%s)\n",
			lis.Addr(), cfg.TotalClients, cfg.Defense, spec.Name, cmp.Or(codecSpec.String(), "none"))
	} else {
		for _, tn := range tenants {
			fmt.Fprintf(stdout, "flserver: federation %s (defense=%s)\n", tn.id, tn.defense)
		}
		fmt.Fprintf(stdout, "flserver: hosting %d federations on %s, waiting for %d clients each\n",
			len(feds), lis.Addr(), cfg.TotalClients)
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
	fmt.Fprintf(w, "%sfinal accuracy %.4f (max %.4f) digest %s\n", prefix, res.FinalAccuracy, res.MaxAccuracy, experiment.Digest(res.FinalWeights))
}
