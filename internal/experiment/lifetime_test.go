package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestLifetimeDigests pins the outcome of the two paper_k10 cell shapes
// whose state outlives a round: buffered async aggregation, which keeps
// updates past their round, and the int8 top-k codec with error feedback,
// which keeps a per-client residual. The digest is the benchmark's: the
// first 8 bytes of SHA-256 over the Float64bits of AccTimeline, DPR,
// MaxAcc and FinalAcc. Both values hold on the SIMD and purego builds and
// at any worker count; a change to what the engine keeps across rounds
// (its async copy, a frame's lifetime) moves them.
func TestLifetimeDigests(t *testing.T) {
	cell := func(attack, defense string) Config {
		return Config{
			Dataset: "fashion-sim", Attack: attack, Defense: defense, Beta: 0.5, Seed: 1,
			TotalClients: 100, PerRound: 10, Rounds: 4, EvalLimit: 320, SampleCount: 20,
			Parallel: true, AttackerFrac: 0.2,
		}
	}
	async := cell("dfa-r", "mkrum")
	async.AsyncBuffer, async.AsyncMaxDelay = 5, 2
	compressed := cell("minmax", "foolsgold")
	compressed.Codec, compressed.TopK, compressed.ErrorFeedback = "int8", 0.1, true
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"async", async, "af826ec39b3d6956"},
		{"codec", compressed, "3d1d12f7a49700cf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			vals := append(append([]float64(nil), out.AccTimeline...), out.DPR, out.MaxAcc, out.FinalAcc)
			h := sha256.New()
			for _, v := range vals {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
