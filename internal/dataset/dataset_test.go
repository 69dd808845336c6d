package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/nn"
)

func TestSpecByName(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"fashion-sim", "fashion-sim"},
		{"fmnist", "fashion-sim"},
		{"cifar", "cifar-sim"},
		{"cifar10", "cifar-sim"},
		{"svhn", "svhn-sim"},
		{"tiny", "tiny-sim"},
	}
	for _, tc := range tests {
		spec, err := SpecByName(tc.in)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", tc.in, err)
		}
		if spec.Name != tc.want {
			t.Errorf("SpecByName(%q).Name = %q, want %q", tc.in, spec.Name, tc.want)
		}
	}
	if _, err := SpecByName("mnist-prime"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	spec := TinySpec()
	train, test := Generate(spec, 42)
	if train.Len() != spec.TrainN || test.Len() != spec.TestN {
		t.Fatalf("sizes %d/%d, want %d/%d", train.Len(), test.Len(), spec.TrainN, spec.TestN)
	}
	for _, img := range train.Images[:10] {
		if img.Shape[0] != spec.Channels || img.Shape[1] != spec.Size || img.Shape[2] != spec.Size {
			t.Fatalf("image shape %v", img.Shape)
		}
	}
	train2, _ := Generate(spec, 42)
	for i := range train.Images[:20] {
		if train.Labels[i] != train2.Labels[i] {
			t.Fatal("generation not deterministic in labels")
		}
		for j := range train.Images[i].Data {
			if train.Images[i].Data[j] != train2.Images[i].Data[j] {
				t.Fatal("generation not deterministic in pixels")
			}
		}
	}
	train3, _ := Generate(spec, 43)
	same := true
	for j := range train.Images[0].Data {
		if train.Images[0].Data[j] != train3.Images[0].Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical first image")
	}
}

// TestGenerateAllocs: a split's images share bulk storage, so generating
// fashion-sim's 7,000 samples makes fewer than one heap object per 8
// samples, where one tensor per sample made four.
func TestGenerateAllocs(t *testing.T) {
	spec := FashionSpec()
	n := spec.TrainN + spec.TestN
	allocs := testing.AllocsPerRun(2, func() { Generate(spec, 3) })
	if allocs*8 >= float64(n) {
		t.Fatalf("Generate(%s) makes %v objects for %d samples, want < %d", spec.Name, allocs, n, n/8)
	}
}

// TestBlockSamples: a pixel block fills one size class of at most 32 KiB
// exactly; cifar-sim takes 4 images (24 KiB), not 5 (30 KiB in a 32 KiB
// class).
func TestBlockSamples(t *testing.T) {
	for _, spec := range []Spec{FashionSpec(), TinySpec(), CIFARSpec(), SVHNSpec(), {Channels: 3, Size: 40}} {
		want := map[string]int{"fashion-sim": 16, "tiny-sim": 64, "cifar-sim": 4, "svhn-sim": 4, "": 1}[spec.Name]
		if got := blockSamples(spec.Channels * spec.Size * spec.Size); got != want {
			t.Errorf("%q: %d images per block, want %d", spec.Name, got, want)
		}
	}
}

// TestImagesDoNotAlias: images that share a pixel block or a shape array
// are still separate slices; appending to one and writing through the
// result leaves its neighbour as it was.
func TestImagesDoNotAlias(t *testing.T) {
	for _, spec := range []Spec{TinySpec(), CIFARSpec()} {
		train, _ := Generate(spec, 5)
		for i := 0; i+1 < 40; i++ {
			next := train.Images[i+1]
			wantData, wantShape := slices.Clone(next.Data), slices.Clone(next.Shape)
			data := append(train.Images[i].Data, 0)
			data[len(data)-1] = math.Inf(1)
			shape := append(train.Images[i].Shape, 0)
			shape[len(shape)-1] = -1
			if !slices.Equal(next.Data, wantData) || !slices.Equal(next.Shape, wantShape) {
				t.Fatalf("%s: appending to image %d wrote into image %d", spec.Name, i, i+1)
			}
		}
	}
}

func TestGenerateClassBalance(t *testing.T) {
	train, _ := Generate(FashionSpec(), 1)
	counts := classCounts(train)
	for c, n := range counts {
		expect := float64(train.Len()) / float64(train.Classes)
		if math.Abs(float64(n)-expect) > expect*0.25 {
			t.Errorf("class %d count %d deviates from uniform %f", c, n, expect)
		}
	}
}

func TestSVHNImbalance(t *testing.T) {
	train, _ := Generate(SVHNSpec(), 1)
	counts := classCounts(train)
	// Class 1 should be clearly more common than class 9 (Benford-like skew).
	if counts[1] <= counts[9] {
		t.Errorf("svhn-sim should be imbalanced: class1=%d class9=%d", counts[1], counts[9])
	}
}

func TestBatchAssembly(t *testing.T) {
	train, _ := Generate(TinySpec(), 7)
	x, labels := train.Batch([]int{0, 5, 9})
	if x.Shape[0] != 3 || x.Shape[1] != train.C || x.Shape[2] != train.H || x.Shape[3] != train.W {
		t.Fatalf("batch shape %v", x.Shape)
	}
	per := train.C * train.H * train.W
	for i, j := range []int{0, 5, 9} {
		if labels[i] != train.Labels[j] {
			t.Fatalf("label mismatch at %d", i)
		}
		for k := 0; k < per; k++ {
			if x.Data[i*per+k] != train.Images[j].Data[k] {
				t.Fatalf("pixel mismatch at sample %d", i)
			}
		}
	}
}

// TestBatchIntoSteadyStateZeroAlloc: BatchInto gathers what Batch does, and
// once its storage has held the largest batch, a trainer's minibatches of
// any size up to it allocate nothing.
func TestBatchIntoSteadyStateZeroAlloc(t *testing.T) {
	train, _ := Generate(TinySpec(), 7)
	batches := [][]int{{4, 1, 7, 2}, {9, 3}, {0, 5, 6, 8}}
	x, labels := train.BatchInto(nil, nil, batches[0])
	gather := func() {
		for _, idx := range batches {
			x, labels = train.BatchInto(x, labels, idx)
			wantX, wantLabels := train.Batch(idx)
			if !slices.Equal(x.Shape, wantX.Shape) || !slices.Equal(x.Data, wantX.Data) || !slices.Equal(labels, wantLabels) {
				t.Fatalf("BatchInto(%v) differs from Batch", idx)
			}
		}
	}
	gather()
	reuse := func() {
		for _, idx := range batches {
			x, labels = train.BatchInto(x, labels, idx)
		}
	}
	if allocs := testing.AllocsPerRun(20, reuse); allocs != 0 {
		t.Fatalf("steady-state BatchInto allocates %v times per pass, want 0", allocs)
	}
}

func TestBatchEmptyPanics(t *testing.T) {
	train, _ := Generate(TinySpec(), 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty batch")
		}
	}()
	train.Batch(nil)
}

func TestSubset(t *testing.T) {
	train, _ := Generate(TinySpec(), 7)
	sub := train.Subset([]int{1, 3})
	if sub.Len() != 2 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if sub.Labels[0] != train.Labels[1] || sub.Labels[1] != train.Labels[3] {
		t.Fatal("subset labels wrong")
	}
	if sub.Images[0] != train.Images[1] {
		t.Fatal("subset should share image tensors")
	}
}

// TestLearnability is the key substitution check: a small CNN must be able
// to learn the synthetic task well above chance, otherwise attack success
// rates would be meaningless.
func TestLearnability(t *testing.T) {
	spec := TinySpec()
	train, test := Generate(spec, 11)
	rng := rand.New(rand.NewSource(5))
	net := nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes)
	opt := nn.NewSGD(0.05, 0.9)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < 8; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += 16 {
			end := start + 16
			if end > len(idx) {
				end = len(idx)
			}
			x, labels := train.Batch(idx[start:end])
			nn.TrainBatch(net, opt, x, labels)
		}
	}
	x, labels := test.Batch(seq(test.Len()))
	preds := nn.PredictInto(nil, net.Forward(x, false))
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(labels))
	if acc < 0.6 {
		t.Fatalf("synthetic task not learnable: accuracy %.2f < 0.6", acc)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPartitionIID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shards := PartitionIID(rng, 103, 10)
	total := 0
	seen := make(map[int]bool)
	for _, s := range shards {
		if len(s) < 10 || len(s) > 11 {
			t.Fatalf("iid shard size %d out of balance", len(s))
		}
		for _, idx := range s {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
		total += len(s)
	}
	if total != 103 {
		t.Fatalf("total %d, want 103", total)
	}
}

func TestPartitionDirichletCoversAllSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := make([]int, 500)
	for i := range labels {
		labels[i] = i % 10
	}
	shards := PartitionDirichlet(rng, labels, 20, 0.5)
	seen := make(map[int]bool)
	for _, s := range shards {
		for _, idx := range s {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 500 {
		t.Fatalf("covered %d samples, want 500", len(seen))
	}
	for c, s := range shards {
		if len(s) == 0 {
			t.Fatalf("client %d has no samples after rebalancing", c)
		}
	}
}

// TestDirichletHeterogeneityMonotone verifies the defining property used
// throughout Section IV-D: lower beta produces higher label skew.
func TestDirichletHeterogeneityMonotone(t *testing.T) {
	labels := make([]int, 2000)
	for i := range labels {
		labels[i] = i % 10
	}
	idxOf := func(beta float64) float64 {
		sum := 0.0
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			shards := PartitionDirichlet(rng, labels, 50, beta)
			sum += heterogeneityIndex(labels, shards, 10)
		}
		return sum / 3
	}
	h01 := idxOf(0.1)
	h05 := idxOf(0.5)
	h09 := idxOf(0.9)
	h100 := idxOf(100)
	if !(h01 > h05 && h05 > h09 && h09 > h100) {
		t.Fatalf("heterogeneity not monotone in beta: h(0.1)=%.3f h(0.5)=%.3f h(0.9)=%.3f h(100)=%.3f",
			h01, h05, h09, h100)
	}
	if h01 < 0.3 {
		t.Errorf("beta=0.1 should be strongly skewed, got %.3f", h01)
	}
	if h100 > 0.2 {
		t.Errorf("beta=100 should be near-iid, got %.3f", h100)
	}
}

func TestPartitionQuantityCoversAllSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shards := PartitionQuantity(rng, 500, 20, 0.5)
	seen := make(map[int]bool)
	for _, s := range shards {
		for _, idx := range s {
			if idx < 0 || idx >= 500 {
				t.Fatalf("index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 500 {
		t.Fatalf("covered %d samples, want 500", len(seen))
	}
	for c, s := range shards {
		if len(s) == 0 {
			t.Fatalf("client %d has no samples after rebalancing", c)
		}
	}
}

// TestPartitionQuantityHeterogeneityMonotone verifies the quantity-skew
// analogue of the Dirichlet monotonicity property: lower beta concentrates
// the data on few clients, leaving many tiny shards whose label
// distributions deviate more from the global one, so heterogeneityIndex
// rises as beta falls. It also checks the size skew directly.
func TestPartitionQuantityHeterogeneityMonotone(t *testing.T) {
	labels := make([]int, 2000)
	for i := range labels {
		labels[i] = i % 10
	}
	stats := func(beta float64) (hi, maxShare float64) {
		sumHI, sumShare := 0.0, 0.0
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			shards := PartitionQuantity(rng, len(labels), 50, beta)
			sumHI += heterogeneityIndex(labels, shards, 10)
			largest := 0
			for _, s := range shards {
				if len(s) > largest {
					largest = len(s)
				}
			}
			sumShare += float64(largest) / float64(len(labels))
		}
		return sumHI / 3, sumShare / 3
	}
	h005, share005 := stats(0.05)
	h05, share05 := stats(0.5)
	h100, share100 := stats(100)
	if !(h005 > h05 && h05 > h100) {
		t.Fatalf("quantity-skew heterogeneity not monotone in beta: h(0.05)=%.3f h(0.5)=%.3f h(100)=%.3f",
			h005, h05, h100)
	}
	if !(share005 > share05 && share05 > share100) {
		t.Fatalf("largest-shard share not monotone in beta: %.3f, %.3f, %.3f",
			share005, share05, share100)
	}
	if share100 > 0.1 {
		t.Errorf("beta=100 should be near-balanced, largest share %.3f", share100)
	}
}

func TestPartitionQuantityInvalidArgsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, f := range map[string]func(){
		"clients": func() { PartitionQuantity(rng, 10, 0, 0.5) },
		"beta":    func() { PartitionQuantity(rng, 10, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSampleDirichletIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := []float64{0.1, 0.5, 1, 5}[rng.Intn(4)]
		p := SampleDirichlet(rng, 1+rng.Intn(20), alpha)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleGammaMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, alpha := range []float64{0.3, 1.0, 2.5} {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			sum += sampleGamma(rng, alpha)
		}
		mean := sum / float64(n)
		if math.Abs(mean-alpha) > 0.1*math.Max(1, alpha) {
			t.Errorf("gamma(%v) sample mean %.3f, want ~%.3f", alpha, mean, alpha)
		}
	}
}

func TestPartitionDirichletInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for beta <= 0")
		}
	}()
	PartitionDirichlet(rand.New(rand.NewSource(1)), []int{0, 1}, 2, 0)
}

func TestHeterogeneityIndexEmptyShards(t *testing.T) {
	if got := heterogeneityIndex([]int{0, 1}, [][]int{{}, {}}, 2); got != 0 {
		t.Fatalf("HeterogeneityIndex of empty shards = %v, want 0", got)
	}
}

// classCounts returns the number of samples per class label.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}

// heterogeneityIndex quantifies label skew of a partition as the mean
// total-variation distance between each client's label distribution and the
// global label distribution (0 = perfectly i.i.d., →1 = one class per
// client), so tests can check that lower beta yields higher skew.
func heterogeneityIndex(labels []int, shards [][]int, classes int) float64 {
	global := make([]float64, classes)
	for _, l := range labels {
		global[l]++
	}
	total := float64(len(labels))
	for i := range global {
		global[i] /= total
	}
	sum := 0.0
	counted := 0
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		local := make([]float64, classes)
		for _, idx := range shard {
			local[labels[idx]]++
		}
		tv := 0.0
		for c := 0; c < classes; c++ {
			tv += math.Abs(local[c]/float64(len(shard)) - global[c])
		}
		sum += tv / 2
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}
