// Command flclient joins a networked federation as one client of the run
// flsim's flags name: it parses the same flags into the same
// experiment.Config, and plays the server-assigned client ID as the
// simulator would (experiment.Recipe) — honest training of that client's
// shard, or, where the placement puts an attacker, the run's attack. That
// is the paper's threat model as written: the data-free DFA variants need
// nothing but the models the server broadcasts. Attacks that craft from the
// round's benign updates (lie, fang, minmax, minsum, signflip) are refused
// before dialing: over the wire they see none.
//
// Example (one per client, with the server's run flags):
//
//	flclient -addr localhost:7070 -dataset fashion-sim -attack dfa-r -clients 10 -per-round 10
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/flnet"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
}

// options is flclient's command line: the run flags flsim binds, and the
// client's own.
type options struct {
	cfg                       experiment.Config
	addr, federation, opsAddr string
	timeout                   time.Duration
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("flclient", flag.ContinueOnError)
	o := &options{}
	o.cfg.BindFlags(fs)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7070", "server address")
	fs.DurationVar(&o.timeout, "timeout", 60*time.Second, "connection timeout")
	fs.StringVar(&o.federation, "federation", "", "federation ID to join on a multi-tenant host (empty = the host's sole federation, which is what a single-tenant server serves)")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "serve this client's ops endpoint over HTTP at this address, e.g. :9091: Prometheus metrics at /metrics (rounds trained, local training time, update coordinates, kernel pool gauges) and pprof under /debug/pprof/ (empty = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.cfg.Normalize()
}

func run(args []string, stdout io.Writer) (retErr error) {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	recipe, err := experiment.NewRecipe(o.cfg)
	if err != nil {
		return err
	}
	if err := recipe.Networked(); err != nil {
		return err
	}
	plane, err := experiment.OpenPlane(experiment.Watch{
		OpsAddr: o.opsAddr,
		OnBound: func(bound string) { fmt.Fprintf(stdout, "flclient: ops endpoint at http://%s/metrics\n", bound) },
	}, "fl client")
	if err != nil {
		return err
	}
	defer plane.CloseInto(&retErr)

	// The server assigns the client's ID at the join; the recipe fills the
	// trainer for it before the first round.
	var trainer assigned
	codecSpec := o.cfg.CodecSpec()
	// A refused join is a *flnet.JoinRejectedError naming its code (codec,
	// admission, unknown-federation, closed, version) and the server's
	// reason.
	client, err := flnet.DialFederation(o.addr, o.federation, &trainer, o.timeout, codecSpec)
	if err != nil {
		return err
	}
	// An ID outside the run (a server started with other run flags) ends
	// the process, and with it the connection.
	inner, role, err := recipe.Client(client.ID)
	if err != nil {
		return err
	}
	if reg := plane.Registry(); reg != nil {
		inner = newCountingTrainer(inner, reg, role)
	}
	trainer.Trainer = inner
	fmt.Fprintf(stdout, "flclient: joined federation %s as client %d (role=%s codec=%s)\n",
		cmp.Or(o.federation, "default"), client.ID, role, cmp.Or(codecSpec.String(), "none"))
	final, err := client.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flclient: training finished, received final model with %d weights, digest %s\n", len(final), experiment.Digest(final))
	return nil
}

// assigned is the trainer a client joins with: the recipe's trainer for the
// ID the join assigned, filled in before the first round.
type assigned struct{ flnet.Trainer }

// countingTrainer wraps a Trainer with the client-side instruments served
// on -ops-addr: rounds trained, failures, local training time, and update
// coordinates produced. Pure observation — the wrapped trainer's outputs
// pass through untouched.
type countingTrainer struct {
	inner  flnet.Trainer
	rounds *telemetry.Counter
	fails  *telemetry.Counter
	dur    *telemetry.Histogram
	coords *telemetry.Counter
}

func newCountingTrainer(inner flnet.Trainer, reg *telemetry.Registry, role string) *countingTrainer {
	labels := []telemetry.Label{{Key: "role", Value: role}}
	return &countingTrainer{
		inner: inner,
		rounds: reg.Counter("flclient_rounds_total",
			"Rounds this client trained successfully.", labels...),
		fails: reg.Counter("flclient_train_failures_total",
			"Local training attempts that returned an error.", labels...),
		dur: reg.Histogram("flclient_train_seconds",
			"Wall-clock duration of one local training call.", labels...),
		coords: reg.Counter("flclient_update_coords_total",
			"Update coordinates produced across all rounds.", labels...),
	}
}

func (t *countingTrainer) Train(round int, global, prevGlobal []float64) ([]float64, int, error) {
	start := telemetry.Nanos()
	weights, n, err := t.inner.Train(round, global, prevGlobal)
	t.dur.ObserveNanos(telemetry.Nanos() - start)
	if err != nil {
		t.fails.Inc()
		return weights, n, err
	}
	t.rounds.Inc()
	t.coords.Add(int64(len(weights)))
	return weights, n, err
}
