// Command flclient joins a networked federation as either an honest trainer
// or an adversary. Benign clients own a Dirichlet shard of the synthetic
// dataset; malicious clients run one of the simulator's attacks, built by the
// same catalogue (experiment.NewAttack) from the same Config — above all the
// data-free DFA variants, which need nothing but the models the server
// broadcasts. Attacks that craft from the round's benign updates (lie, fang,
// minmax, minsum, signflip) are refused: over the wire they see none.
//
// Example:
//
//	flclient -addr localhost:7070 -role benign -shard 0 -of 6
//	flclient -addr localhost:7070 -role dfa-g
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("flclient", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	dsName := fs.String("dataset", "fashion-sim", "dataset spec (must match the server)")
	role := fs.String("role", "benign", "benign, or a simulator attack that needs no benign updates: dfa-r, dfa-g, dfa-r-static, dfa-g-static, random, freerider, labelflip, real-data")
	shard := fs.Int("shard", 0, "benign, labelflip, real-data: this client's shard index")
	of := fs.Int("of", 6, "benign, labelflip, real-data: total number of shards")
	beta := fs.Float64("beta", 0.5, "Dirichlet heterogeneity of the shards (<=0 for i.i.d.)")
	lr := fs.Float64("lr", 0.05, "local learning rate (benign and labelflip SGD, the DFA/real-data adversarial classifier)")
	samples := fs.Int("samples", 20, "DFA and real-data: set size |S|")
	seed := fs.Int64("seed", 1, "random seed (benign shards must share the server's dataset seed)")
	timeout := fs.Duration("timeout", 60*time.Second, "connection timeout")
	federation := fs.String("federation", "", "federation ID to join on a multi-tenant host (empty = the host's sole federation, which is what a single-tenant server serves)")
	codecToken := fs.String("codec", "", "update codec to negotiate at join, as a codec spec token: raw, fp16, int8, optionally with ,topk=<frac> and ,ef — must match the server's -codec (empty = legacy dense updates)")
	opsAddr := fs.String("ops-addr", "", "serve this client's ops endpoint over HTTP at this address, e.g. :9091: Prometheus metrics at /metrics (rounds trained, local training time, update coordinates, kernel pool gauges) and pprof under /debug/pprof/ (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	codecSpec, err := codec.ParseSpec(*codecToken)
	if err != nil {
		return err
	}

	cfg, err := roleConfig(*dsName, *role, *beta, *lr, *samples, *seed)
	if err != nil {
		return err
	}
	trainer, err := newTrainer(cfg, *shard, *of)
	if err != nil {
		return err
	}
	plane, err := experiment.OpenPlane(experiment.Watch{
		OpsAddr: *opsAddr,
		OnBound: func(bound string) { fmt.Fprintf(stdout, "flclient: ops endpoint at http://%s/metrics\n", bound) },
	}, "fl client")
	if err != nil {
		return err
	}
	defer plane.CloseInto(&retErr)
	if reg := plane.Registry(); reg != nil {
		trainer = newCountingTrainer(trainer, reg, *role)
	}

	client, err := flnet.DialFederation(*addr, *federation, trainer, *timeout, codecSpec)
	if err != nil {
		var jrej *flnet.JoinRejectedError
		if errors.As(err, &jrej) {
			switch jrej.Code {
			case flnet.RejectCodec:
				return fmt.Errorf("server refused codec %q before round start: %s (retry with a matching -codec)", codecSpec.String(), jrej.Reason)
			case flnet.RejectAdmission:
				return fmt.Errorf("host's join queue for federation %q is full: %s (retry after a backoff)", jrej.Federation, jrej.Reason)
			case flnet.RejectUnknownFederation:
				return fmt.Errorf("host serves no federation %q: %s (check -federation)", jrej.Federation, jrej.Reason)
			}
			return fmt.Errorf("join rejected (%s): %s", jrej.Code, jrej.Reason)
		}
		return err
	}
	negotiated := codecSpec.String()
	if negotiated == "" {
		negotiated = "none"
	}
	fedLabel := *federation
	if fedLabel == "" {
		fedLabel = "default"
	}
	fmt.Fprintf(stdout, "flclient: joined federation %s as client %d (role=%s codec=%s)\n", fedLabel, client.ID, *role, negotiated)
	final, err := client.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flclient: training finished, received final model with %d weights\n", len(final))
	return nil
}

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

// roleConfig is the simulator's Config of the run a role plays: the attack
// is named as flsim names it, and every parameter the flags do not set
// takes Normalize's value (so a cifar-sim DFA synthesizes for the
// simulator's 10 epochs). Normalize reads a zero as "default"; -samples and
// -lr keep their meaning instead.
func roleConfig(dsName, role string, beta, lr float64, samples int, seed int64) (experiment.Config, error) {
	cfg := experiment.Config{Dataset: dsName, Attack: role, Beta: beta, Seed: seed}
	err := cfg.Normalize()
	cfg.SampleCount, cfg.LR = samples, lr
	return cfg, err
}

// newTrainer builds the client's behaviour: honest SGD on its shard for the
// "benign" role, otherwise the catalogue's attack cfg.Attack names. The
// data-holding attacks (labelflip, real-data) train on the shard a benign
// client with the same -shard/-of would own.
func newTrainer(cfg experiment.Config, shard, of int) (flnet.Trainer, error) {
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("shard %d out of range [0,%d)", shard, of)
	}
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	train, _ := dataset.Generate(spec, cfg.Seed)
	prng := rand.New(rand.NewSource(int64(of) * 31))
	var shards [][]int
	if cfg.Beta > 0 {
		shards = dataset.PartitionDirichlet(prng, train.Labels, of, cfg.Beta)
	} else {
		shards = dataset.PartitionIID(prng, train.Len(), of)
	}
	newModel := experiment.NewModel(spec)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(shard)*7919 + 17))
	if cfg.Attack == "benign" {
		return flnet.NewBenignTrainer(train, shards[shard], newModel, cfg.LR, cfg.LocalEpochs, cfg.BatchSize, rng), nil
	}
	atk, err := experiment.NewAttack(cfg, train, shards[shard])
	switch {
	case err != nil:
		return nil, fmt.Errorf("role %q: %w", cfg.Attack, err)
	case atk == nil:
		return nil, fmt.Errorf("unknown role %q", cfg.Attack)
	}
	if _, oracle := atk.(fl.OracleAttack); oracle {
		return nil, fmt.Errorf("role %q crafts from the round's benign updates, but a networked adversary sees only the broadcast models; use a data-free role such as dfa-r", cfg.Attack)
	}
	return flnet.NewAttackTrainer(atk, newModel, rng, 50), nil
}
