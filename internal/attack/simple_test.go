package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestFreeRiderReturnsGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	global := []float64{1, 2, 3}
	out, err := FreeRider{}.Craft(testCtx(rng, nil, 2, global))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d vectors", len(out))
	}
	for _, v := range out {
		if vec.SqDist(v, global) != 0 {
			t.Fatal("free rider without noise should return the global model")
		}
	}
	// Returned vectors must not alias the caller's global slice.
	out[0][0] = 99
	if global[0] == 99 {
		t.Fatal("free rider aliased the global vector")
	}
}

func TestFreeRiderNoiseDisguise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	global := []float64{1, 2, 3, 4}
	out, err := FreeRider{NoiseStd: 0.01}.Craft(testCtx(rng, nil, 2, global))
	if err != nil {
		t.Fatal(err)
	}
	d := math.Sqrt(vec.SqDist(out[0], global))
	if d == 0 || d > 1 {
		t.Fatalf("disguise distance %v unexpected", d)
	}
	if vec.SqDist(out[0], out[1]) == 0 {
		t.Fatal("disguised free riders should differ from each other")
	}
}

func TestSignFlipOpposesBenignStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	global := []float64{0, 0, 0}
	benign := [][]float64{{1, 2, 3}, {1.2, 1.8, 3.1}}
	out, err := SignFlip{}.Craft(testCtx(rng, benign, 1, global))
	if err != nil {
		t.Fatal(err)
	}
	mean := vec.Mean(benign)
	for j, v := range out[0] {
		// Malicious = global − (mean − global): exact mirror.
		want := -mean[j]
		if v != want {
			t.Fatalf("coord %d: got %v, want %v", j, v, want)
		}
	}
}

func TestSignFlipGammaScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	global := []float64{0, 0}
	benign := [][]float64{{2, 4}}
	out, err := SignFlip{Gamma: 3}.Craft(testCtx(rng, benign, 1, global))
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != -6 || out[0][1] != -12 {
		t.Fatalf("gamma scaling wrong: %v", out[0])
	}
}

func TestSignFlipFallsBackWithoutBenign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := []float64{5, 6}
	out, err := SignFlip{}.Craft(testCtx(rng, nil, 1, global))
	if err != nil {
		t.Fatal(err)
	}
	if vec.SqDist(out[0], global) != 0 {
		t.Fatal("fallback should return the global model")
	}
}
