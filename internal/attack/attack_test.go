package attack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/vec"
)

func testCtx(rng *rand.Rand, benign [][]float64, attackers int, global []float64) *fl.AttackContext {
	return &fl.AttackContext{
		Round:          3,
		Global:         global,
		PrevGlobal:     global,
		BenignUpdates:  benign,
		NumAttackers:   attackers,
		NumSelected:    len(benign) + attackers,
		TotalClients:   100,
		TotalAttackers: 20,
		Rng:            rng,
	}
}

func randVecs(rng *rand.Rand, n, dim int, std float64) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, dim)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64() * std
		}
	}
	return vs
}

func TestRandomWeightsInGlobalRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	global := []float64{-2, 0, 1, 3}
	ctx := testCtx(rng, nil, 3, global)
	out, err := RandomWeights{}.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d vectors, want 3", len(out))
	}
	for _, v := range out {
		if len(v) != len(global) {
			t.Fatalf("vector length %d", len(v))
		}
		for _, x := range v {
			if x < -2 || x > 3 {
				t.Fatalf("random weight %v outside global range [-2,3]", x)
			}
		}
	}
	// Different attackers get different vectors.
	if vec.SqDist(out[0], out[1]) == 0 {
		t.Fatal("random attackers should differ")
	}
}

func TestLIEZFormula(t *testing.T) {
	a := LIE{}
	// Paper-scale population of Baruch et al.: n=50, m=12 → z ≈ 0.33.
	z := a.Z(50, 12)
	if math.Abs(z-0.33) > 0.05 {
		t.Errorf("Z(50,12) = %v, want ≈0.33", z)
	}
	// Degenerate small-population case falls back to the floor.
	if got := a.Z(10, 2); got != 0.3 {
		t.Errorf("Z(10,2) = %v, want floor 0.3", got)
	}
	if got := (LIE{ZOverride: 1.5}).Z(10, 2); got != 1.5 {
		t.Errorf("ZOverride ignored: %v", got)
	}
}

func TestLIEShiftsMeanByZStd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	benign := randVecs(rng, 8, 10, 1)
	a := LIE{ZOverride: 0.7}
	ctx := testCtx(rng, benign, 2, make([]float64, 10))
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d vectors", len(out))
	}
	mean := vec.Mean(benign)
	std := vec.Std(benign)
	for j := range mean {
		want := mean[j] - 0.7*std[j]
		if math.Abs(out[0][j]-want) > 1e-9 {
			t.Fatalf("coord %d: got %v, want %v", j, out[0][j], want)
		}
	}
	// All attackers submit the same update.
	if vec.SqDist(out[0], out[1]) != 0 {
		t.Fatal("LIE attackers should submit identical updates")
	}
}

func TestFangOpposesBenignDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 6
	global := make([]float64, dim)
	// Benign updates move every coordinate up from the global model.
	benign := make([][]float64, 5)
	for i := range benign {
		benign[i] = make([]float64, dim)
		for j := range benign[i] {
			benign[i][j] = 1 + rng.Float64() // in [1, 2]
		}
	}
	ctx := testCtx(rng, benign, 2, global)
	out, err := Fang{B: 2}.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lo := benign[0][0]
	for _, u := range benign {
		for _, x := range u {
			if x < lo {
				lo = x
			}
		}
	}
	for _, v := range out {
		for j, x := range v {
			// Every benign direction is up, so malicious coordinates must
			// sit at or below the benign minimum of that coordinate.
			minJ := math.Inf(1)
			for _, u := range benign {
				minJ = math.Min(minJ, u[j])
			}
			if x > minJ+1e-9 {
				t.Fatalf("coord %d: malicious %v not below benign min %v", j, x, minJ)
			}
			if x < minJ/2-1e-9 {
				t.Fatalf("coord %d: malicious %v below lower bound %v", j, x, minJ/2)
			}
		}
	}
}

func TestFangNegativeDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 4
	global := []float64{5, 5, 5, 5}
	// Benign updates move down from 5 to ≈2: direction negative.
	benign := make([][]float64, 4)
	for i := range benign {
		benign[i] = make([]float64, dim)
		for j := range benign[i] {
			benign[i][j] = 2 + rng.Float64()*0.1
		}
	}
	ctx := testCtx(rng, benign, 1, global)
	out, err := Fang{}.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range out[0] {
		maxJ := math.Inf(-1)
		for _, u := range benign {
			maxJ = math.Max(maxJ, u[j])
		}
		if x < maxJ-1e-9 {
			t.Fatalf("coord %d: malicious %v not above benign max %v", j, x, maxJ)
		}
	}
}

func TestMinMaxConstraintHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	benign := randVecs(rng, 8, 20, 1)
	ctx := testCtx(rng, benign, 2, make([]float64, 20))
	out, err := MinMax{}.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mal := out[0]
	bound := vec.MaxPairwiseSqDist(benign)
	worst := 0.0
	for _, b := range benign {
		if d := vec.SqDist(mal, b); d > worst {
			worst = d
		}
	}
	if worst > bound*(1+1e-6) {
		t.Fatalf("MinMax constraint violated: %v > %v", worst, bound)
	}
	// The attack should actually deviate from the mean (gamma > 0).
	if vec.SqDist(mal, vec.Mean(benign)) < 1e-12 {
		t.Fatal("MinMax did not move away from the benign mean")
	}
}

func TestMinMaxGammaIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	benign := randVecs(rng, 6, 10, 1)
	a := MinMax{}
	mal, err := a.vector(benign)
	if err != nil {
		t.Fatal(err)
	}
	mean := vec.Mean(benign)
	p := perturbation(0, benign, mean)
	bound := vec.MaxPairwiseSqDist(benign)
	// Recover gamma and verify a slightly larger one violates the bound.
	gamma := math.Sqrt(vec.SqDist(mal, mean)) / vec.Norm2(p)
	larger := vec.Add(mean, vec.Scale(p, gamma*1.05))
	worst := 0.0
	for _, b := range benign {
		if d := vec.SqDist(larger, b); d > worst {
			worst = d
		}
	}
	if worst <= bound {
		t.Fatalf("gamma %v not maximal: 1.05x still satisfies bound", gamma)
	}
}

func TestMinSumConstraintHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	benign := randVecs(rng, 8, 20, 1)
	ctx := testCtx(rng, benign, 1, make([]float64, 20))
	out, err := MinSum{}.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mal := out[0]
	bound := 0.0
	for _, bi := range benign {
		sum := 0.0
		for _, bj := range benign {
			sum += vec.SqDist(bi, bj)
		}
		bound = math.Max(bound, sum)
	}
	sum := 0.0
	for _, b := range benign {
		sum += vec.SqDist(mal, b)
	}
	if sum > bound*(1+1e-6) {
		t.Fatalf("MinSum constraint violated: %v > %v", sum, bound)
	}
}

func TestPerturbationKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	benign := randVecs(rng, 5, 6, 1)
	mean := vec.Mean(benign)
	pStd := perturbation(0, benign, mean)
	std := vec.Std(benign)
	for j := range pStd {
		if math.Abs(pStd[j]+std[j]) > 1e-12 {
			t.Fatal("the zero PerturbKind should be -std")
		}
	}
	pUnit := perturbation(PerturbUnit, benign, mean)
	if math.Abs(vec.Norm2(pUnit)-1) > 1e-9 {
		t.Fatal("PerturbUnit should have unit norm")
	}
	dot := 0.0
	for j := range pUnit {
		dot += pUnit[j] * mean[j]
	}
	if dot > 0 {
		t.Fatal("PerturbUnit should oppose the mean")
	}
	pSign := perturbation(PerturbSign, benign, mean)
	for j := range pSign {
		if pSign[j]*mean[j] > 0 {
			t.Fatal("PerturbSign should oppose the mean sign")
		}
	}
}

func TestOracleAttacksFallBackWithoutBenign(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	global := []float64{1, 2, 3}
	for _, a := range []fl.Attack{LIE{}, Fang{}, MinMax{}, MinSum{}} {
		ctx := testCtx(rng, nil, 2, global)
		out, err := a.Craft(ctx)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(out) != 2 {
			t.Fatalf("%s: %d vectors", a.Name(), len(out))
		}
		for _, v := range out {
			if vec.SqDist(v, global) != 0 {
				t.Fatalf("%s: fallback should submit the global model", a.Name())
			}
		}
	}
}

func TestGammaSearchMonotone(t *testing.T) {
	f := func(rawBound float64) bool {
		bound := math.Mod(math.Abs(rawBound), 40) + 0.1
		got := gammaSearch(50, 1e-6, func(g float64) bool { return g <= bound })
		return math.Abs(got-bound) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// When even gammaInit satisfies the bound, return gammaInit.
	if got := gammaSearch(50, 1e-6, func(float64) bool { return true }); got != 50 {
		t.Fatalf("unconstrained gammaSearch = %v, want 50", got)
	}
}

func TestLabelFlipTrainsOnFlippedLabels(t *testing.T) {
	spec := dataset.TinySpec()
	train, _ := dataset.Generate(spec, 3)
	rng := rand.New(rand.NewSource(10))
	newModel := func(r *rand.Rand) *nn.Network {
		return nn.NewFashionCNN(r, spec.Channels, spec.Size, spec.Classes)
	}
	shard := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a := &LabelFlip{Data: train, Shard: shard, LR: 0.05, Epochs: 2, BatchSize: 4}
	global := newModel(rand.New(rand.NewSource(11))).WeightVector()
	ctx := testCtx(rng, nil, 2, global)
	ctx.NewModel = newModel
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d vectors", len(out))
	}
	if vec.SqDist(out[0], global) == 0 {
		t.Fatal("labelflip should change the weights")
	}
	// Malicious training must not mutate the caller's global vector.
	if vec.SqDist(global, ctx.Global) != 0 {
		t.Fatal("labelflip mutated the global weights")
	}
}

func TestLabelFlipRequiresData(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := &LabelFlip{}
	if _, err := a.Craft(testCtx(rng, nil, 1, []float64{1})); err == nil {
		t.Fatal("expected error without data")
	}
}

func TestReplicatePerturbs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := testCtx(rng, nil, 3, []float64{0, 0, 0, 0})
	base := []float64{1, 2, 3, 4}
	out := fl.Replicate(ctx, base, 0.01)
	if len(out) != 3 {
		t.Fatalf("got %d copies", len(out))
	}
	for _, v := range out {
		d := math.Sqrt(vec.SqDist(v, base))
		if d == 0 || d > 1 {
			t.Fatalf("perturbed copy distance %v out of expected range", d)
		}
	}
	// Perturbation must not alias the base slice.
	out[0][0] = 99
	if base[0] == 99 {
		t.Fatal("replicate aliased the base vector")
	}
}
