package flnet

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/persist"
)

// runCheckpointedFederation runs a 2-client FedAvg federation with the plain
// server optimizer for the given total round budget against a shared
// checkpoint path, with fresh clients, and returns the result. Without
// evaluate the server has no test set and evaluates nothing; with attacker
// client 1 is a DFA-R attacker.
func runCheckpointedFederation(t *testing.T, ckpt string, rounds int, evaluate, attacker bool) *ServerResult {
	t.Helper()
	spec := dataset.TinySpec()
	train, test := dataset.Generate(spec, 11)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	shards := dataset.PartitionIID(rand.New(rand.NewSource(8)), train.Len(), 2)
	if !evaluate {
		test = nil
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	srv, err := NewServer(ServerConfig{
		MinClients:     2,
		PerRound:       2,
		Rounds:         rounds,
		RoundTimeout:   10 * time.Second,
		Seed:           6,
		CheckpointPath: ckpt,
		DatasetName:    spec.Name,
		ModelName:      "fashion-cnn",
	}, defense.FedAvg{}, newModel, test)
	if err != nil {
		t.Fatal(err)
	}
	type serveOut struct {
		res *ServerResult
		err error
	}
	serverDone := make(chan serveOut, 1)
	go func() {
		res, err := srv.Serve(lis)
		serverDone <- serveOut{res, err}
	}()

	// Sequential joins get sequential IDs, so client i trains shard i.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		var trainer Trainer = NewBenignTrainer(train, shards[i], newModel, 0.05, 1, 8, 20, i)
		if attacker && i == 1 {
			dfa, err := core.NewDFAR(core.DFAConfig{Classes: spec.Classes, ImgC: spec.Channels, ImgSize: spec.Size,
				SampleCount: 4, SynthesisEpochs: 2, Trained: true, PerturbStd: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			trainer = NewAttackTrainer(dfa, newModel, 20, i, 40)
		}
		client, err := DialCodec(lis.Addr().String(), trainer, 10*time.Second, codec.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	out := <-serverDone
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	return out.res
}

// TestServerResumesFromCheckpoint kills-and-restarts a checkpointed server:
// the restarted server must continue at the round after the checkpoint, not
// from round zero with fresh weights.
func TestServerResumesFromCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "federation.ckpt")

	// First life: rounds 0 and 1, checkpointing each.
	res1 := runCheckpointedFederation(t, ckpt, 2, true, false)
	if len(res1.Rounds) != 2 || res1.Rounds[0].Round != 0 {
		t.Fatalf("first run rounds: %+v", res1.Rounds)
	}

	// Restart with the same round budget: the checkpoint says everything is
	// done, so the server runs zero rounds and redistributes the
	// checkpointed weights untouched.
	res2 := runCheckpointedFederation(t, ckpt, 2, true, false)
	if len(res2.Rounds) != 0 {
		t.Fatalf("fully-checkpointed server re-ran %d rounds", len(res2.Rounds))
	}
	if res2.MaxAccuracy != res1.MaxAccuracy {
		t.Fatalf("resumed MaxAccuracy %.4f, want pre-crash %.4f", res2.MaxAccuracy, res1.MaxAccuracy)
	}
	if len(res2.FinalWeights) != len(res1.FinalWeights) {
		t.Fatal("resumed weights length diverges")
	}
	for i := range res2.FinalWeights {
		if res2.FinalWeights[i] != res1.FinalWeights[i] {
			t.Fatalf("resumed weights diverge from checkpoint at %d", i)
		}
	}

	// Restart with a larger budget: training continues at round 2.
	res3 := runCheckpointedFederation(t, ckpt, 4, true, false)
	if len(res3.Rounds) != 2 {
		t.Fatalf("resumed server ran %d rounds, want the 2 remaining", len(res3.Rounds))
	}
	if res3.Rounds[0].Round != 2 || res3.Rounds[1].Round != 3 {
		t.Fatalf("resumed rounds %d,%d, want 2,3", res3.Rounds[0].Round, res3.Rounds[1].Round)
	}
}

// TestResumedFederationIsExact kills a checkpointed federation after round
// 2 and restarts it with fresh clients: it must end on the uninterrupted
// run's weights bit for bit. The checkpoint carries the server's state, a
// benign client trains round r on its per-(seed, round, id) stream and a
// DFA-R attacker crafts round r from the round's craft stream and its own
// noise, so a restarted one redoes the remaining rounds exactly. A
// federation without a test set checkpoints a NaN accuracy every round and
// resumes the same way; its final accuracy stays NaN, as nothing was
// evaluated.
func TestResumedFederationIsExact(t *testing.T) {
	for _, c := range []struct{ evaluate, attacker bool }{{true, false}, {false, false}, {true, true}} {
		evaluate := c.evaluate
		dir := t.TempDir()
		whole := runCheckpointedFederation(t, filepath.Join(dir, "whole.ckpt"), 4, evaluate, c.attacker)
		ckpt := filepath.Join(dir, "killed.ckpt")
		runCheckpointedFederation(t, ckpt, 2, evaluate, c.attacker)
		resumed := runCheckpointedFederation(t, ckpt, 4, evaluate, c.attacker)
		if len(resumed.Rounds) != 2 || resumed.Rounds[0].Round != 2 {
			t.Fatalf("%+v: resumed rounds %+v, want rounds 2 and 3", c, resumed.Rounds)
		}
		if got, want := weightsDigest(resumed.FinalWeights), weightsDigest(whole.FinalWeights); got != want {
			t.Fatalf("%+v: resumed final weights %s, uninterrupted %s", c, got, want)
		}
		if math.IsNaN(resumed.FinalAccuracy) == evaluate || resumed.MaxAccuracy != whole.MaxAccuracy {
			t.Fatalf("%+v: resumed accuracy %v (max %v), uninterrupted %v (max %v)",
				c, resumed.FinalAccuracy, resumed.MaxAccuracy, whole.FinalAccuracy, whole.MaxAccuracy)
		}
	}
}

// TestServerRejectsMismatchedCheckpoint: resuming from a checkpoint of
// another run — another task, architecture, seed, population or round
// budget, or one that lacks w(t−1) — must fail before any client joins,
// and so must a file that holds no v2 record. Every identity field is
// compared as it is: the zero-valued ones included, which checkpoints
// written before a field existed once carried and resumed past.
func TestServerRejectsMismatchedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 12)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	wantLen := len(newModel(rand.New(rand.NewSource(1))).WeightVector())
	// matching is a checkpoint of the server below; each case breaks one field.
	matching := func() persist.Checkpoint {
		return persist.Checkpoint{Dataset: spec.Name, Model: "fashion-cnn", Seed: 6, MinClients: 1, PerRound: 1,
			Weights: make([]float64, wantLen), Resume: persist.Resume{Prev: make([]float64, wantLen), Accuracy: -1}}
	}
	cases := []struct {
		name, want string
		edit       func(*persist.Checkpoint)
	}{
		{"dataset", "checkpoint dataset", func(cp *persist.Checkpoint) { cp.Dataset = "cifar-sim" }},
		{"model", "checkpoint model", func(cp *persist.Checkpoint) { cp.Model = "deep-cnn" }},
		{"weights", "weights, model has", func(cp *persist.Checkpoint) { cp.Weights = make([]float64, wantLen+1) }},
		{"round", "checkpoint round", func(cp *persist.Checkpoint) { cp.Round = 9 }},
		{"prev-weights", "prev weights", func(cp *persist.Checkpoint) { cp.Prev = make([]float64, 3) }},
		{"seed", "checkpoint seed", func(cp *persist.Checkpoint) { cp.Seed = 99 }},
		{"population", "checkpoint population", func(cp *persist.Checkpoint) { cp.MinClients = 5 }},
		{"zero-dataset", "checkpoint dataset", func(cp *persist.Checkpoint) { cp.Dataset = "" }},
		{"zero-model", "checkpoint model", func(cp *persist.Checkpoint) { cp.Model = "" }},
		{"zero-seed", "checkpoint seed", func(cp *persist.Checkpoint) { cp.Seed = 0 }},
		{"zero-population", "checkpoint population", func(cp *persist.Checkpoint) { cp.MinClients, cp.PerRound = 0, 0 }},
		{"zero-per-round", "per round", func(cp *persist.Checkpoint) { cp.PerRound = 0 }},
		{"no-prev-weights", "prev weights", func(cp *persist.Checkpoint) { cp.Prev = nil }},
		{"v1-file", "no intact", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(dir, tc.name+".ckpt")
			if tc.edit == nil {
				v1, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "v1.ckpt"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ckpt, v1, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				cp := matching()
				tc.edit(&cp)
				for i := range cp.Weights {
					cp.Weights[i] = 0.01
				}
				if err := persist.Save(ckpt, &cp); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := NewServer(ServerConfig{
				MinClients:     1,
				PerRound:       1,
				Rounds:         2,
				RoundTimeout:   time.Second,
				Seed:           6,
				CheckpointPath: ckpt,
				DatasetName:    spec.Name,
				ModelName:      "fashion-cnn",
			}, defense.FedAvg{}, newModel, test)
			if err != nil {
				t.Fatal(err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			_, err = srv.Serve(lis)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mismatched checkpoint: err %v, want one naming %q before anyone joins", err, tc.want)
			}
			var fe *persist.FormatError
			if tc.edit == nil && !errors.As(err, &fe) {
				t.Fatalf("v1 checkpoint: err %v, want a *persist.FormatError", err)
			}
		})
	}
}

// TestServerRefusesFedAvgMResume: a checkpoint holds no server momentum
// and no FoolsGold history, so a federation carrying either asked to
// resume from one is refused before anyone joins, with the engine's own
// *fl.ResumeError naming the component.
func TestServerRefusesFedAvgMResume(t *testing.T) {
	spec := dataset.TinySpec()
	_, test := dataset.Generate(spec, 12)
	newModel := func(rng *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	}
	for _, tc := range []struct {
		component string
		scenario  fl.Scenario
		agg       fl.Aggregator
	}{
		{"fedavgm", fl.Scenario{ServerOpt: fl.NewFedAvgM(1, 0.9)}, defense.FedAvg{}},
		{"foolsgold", fl.Scenario{}, defense.NewFoolsGold(1)},
	} {
		t.Run(tc.component, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), tc.component+".ckpt")
			w := newModel(rand.New(rand.NewSource(1))).WeightVector()
			cp := persist.Checkpoint{Dataset: spec.Name, Model: "fashion-cnn", Seed: 6, MinClients: 1, PerRound: 1,
				Weights: w, Resume: persist.Resume{Prev: w, Accuracy: -1}}
			if err := persist.Save(ckpt, &cp); err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{
				MinClients:     1,
				PerRound:       1,
				Rounds:         3,
				RoundTimeout:   time.Second,
				Seed:           6,
				Scenario:       tc.scenario,
				CheckpointPath: ckpt,
				DatasetName:    spec.Name,
				ModelName:      "fashion-cnn",
			}, tc.agg, newModel, test)
			if err != nil {
				t.Fatal(err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			_, err = srv.Serve(lis)
			var re *fl.ResumeError
			if !errors.As(err, &re) || re.Component != tc.component {
				t.Fatalf("resume: err %v, want a *fl.ResumeError naming %s", err, tc.component)
			}
		})
	}
}
