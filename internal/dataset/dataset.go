// Package dataset provides the image-classification substrate of the
// reproduction: synthetic stand-ins for Fashion-MNIST, CIFAR-10 and SVHN,
// plus the Dirichlet-based heterogeneous data partitioning the paper uses to
// emulate non-i.i.d. clients.
//
// The real datasets are not available in an offline, stdlib-only module, so
// each benchmark is replaced by a procedurally generated 10-class image task
// whose *relevant characteristics* are preserved (see DESIGN.md): channel
// count, relative difficulty, intra-class diversity, and — for SVHN — class
// imbalance. Class signatures are smooth mixtures of 2-D sinusoids; samples
// add translation jitter, amplitude scaling and pixel noise.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// Dataset is an in-memory labelled image collection. Images are CHW tensors
// with pixel values roughly in [−1, 1].
type Dataset struct {
	Images  []*tensor.Tensor
	Labels  []int
	Classes int
	// C, H, W describe every image's shape.
	C, H, W int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Images) }

// Batch assembles the samples at the given indices into a fresh
// [len(idx), C, H, W] tensor plus the matching label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(nil, nil, idx)
}

// BatchInto is Batch into storage the caller keeps: x (a previous BatchInto
// result of this dataset, or nil) and labels are reused when they can hold
// len(idx) samples, and grown otherwise. It returns them resized to the
// batch, so a trainer that gathers every minibatch through it allocates
// only for its largest one.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels, idx []int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("dataset: Batch of zero indices")
	}
	per := d.C * d.H * d.W
	if x == nil || cap(x.Data) < len(idx)*per {
		x = tensor.New(len(idx), d.C, d.H, d.W)
	} else {
		x.Data, x.Shape[0] = x.Data[:len(idx)*per], len(idx)
	}
	labels = slices.Grow(labels[:0], len(idx))[:len(idx)]
	for i, j := range idx {
		copy(x.Data[i*per:(i+1)*per], d.Images[j].Data)
		labels[i] = d.Labels[j]
	}
	return x, labels
}

// Subset returns a dataset view containing only the samples at the given
// indices. Image tensors are shared with the parent.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		Images:  make([]*tensor.Tensor, len(idx)),
		Labels:  make([]int, len(idx)),
		Classes: d.Classes,
		C:       d.C, H: d.H, W: d.W,
	}
	for i, j := range idx {
		s.Images[i] = d.Images[j]
		s.Labels[i] = d.Labels[j]
	}
	return s
}

// ClassCounts returns the number of samples per class label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}

// Spec describes a synthetic dataset family.
type Spec struct {
	// Name identifies the dataset ("fashion-sim", "cifar-sim", "svhn-sim").
	Name string
	// Channels is 1 for grayscale, 3 for RGB.
	Channels int
	// Size is the square image side length.
	Size int
	// Classes is the number of labels (10 for all paper datasets).
	Classes int
	// TrainN and TestN are the number of generated samples.
	TrainN, TestN int
	// Waves is the number of sinusoidal components per class signature;
	// more waves means higher-frequency, harder-to-learn structure.
	Waves int
	// NoiseStd is the per-pixel Gaussian noise level.
	NoiseStd float64
	// Jitter is the maximum circular translation in pixels (intra-class
	// spatial diversity).
	Jitter int
	// AmpVar is the relative amplitude variation between samples of a class.
	AmpVar float64
	// ClassPrior optionally skews the label distribution (SVHN is slightly
	// imbalanced); nil means uniform.
	ClassPrior []float64
}

// FashionSpec mirrors Fashion-MNIST as used in the paper: grayscale, easy,
// low intra-class diversity, subsampled to 10% (≈6000 train images).
func FashionSpec() Spec {
	return Spec{
		Name:     "fashion-sim",
		Channels: 1,
		Size:     16,
		Classes:  10,
		TrainN:   6000,
		TestN:    1000,
		Waves:    3,
		NoiseStd: 0.25,
		Jitter:   1,
		AmpVar:   0.15,
	}
}

// CIFARSpec mirrors CIFAR-10 as used in the paper: RGB, harder, diverse
// benign updates, subsampled to 10% (≈5000 train images).
func CIFARSpec() Spec {
	return Spec{
		Name:     "cifar-sim",
		Channels: 3,
		Size:     16,
		Classes:  10,
		TrainN:   5000,
		TestN:    1000,
		Waves:    5,
		NoiseStd: 0.6,
		Jitter:   1,
		AmpVar:   0.3,
	}
}

// SVHNSpec mirrors SVHN as used in the paper: RGB digit-like task of medium
// difficulty with a slightly imbalanced class prior, kept at full relative
// size (the paper does not subsample SVHN).
func SVHNSpec() Spec {
	return Spec{
		Name:     "svhn-sim",
		Channels: 3,
		Size:     16,
		Classes:  10,
		TrainN:   7000,
		TestN:    1200,
		Waves:    3,
		NoiseStd: 0.4,
		Jitter:   1,
		AmpVar:   0.2,
		// Street-number digit frequencies are skewed toward low digits
		// (Benford-like), which is the imbalance the paper refers to.
		ClassPrior: []float64{0.07, 0.19, 0.15, 0.12, 0.10, 0.09, 0.08, 0.07, 0.07, 0.06},
	}
}

// TinySpec is a fast 8×8 grayscale task for unit tests.
func TinySpec() Spec {
	return Spec{
		Name:     "tiny-sim",
		Channels: 1,
		Size:     8,
		Classes:  4,
		TrainN:   240,
		TestN:    80,
		Waves:    2,
		NoiseStd: 0.15,
		Jitter:   0,
		AmpVar:   0.1,
	}
}

// SpecByName resolves the canonical dataset specs used by the experiment
// harness.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "fashion-sim", "fashion", "fmnist":
		return FashionSpec(), nil
	case "cifar-sim", "cifar", "cifar10":
		return CIFARSpec(), nil
	case "svhn-sim", "svhn":
		return SVHNSpec(), nil
	case "tiny-sim", "tiny":
		return TinySpec(), nil
	default:
		return Spec{}, fmt.Errorf("dataset: unknown spec %q", name)
	}
}

// classSignature builds the deterministic per-class template: for every
// channel, a sum of Waves random sinusoids drawn from a class-seeded RNG.
func classSignature(spec Spec, class int, seed int64) *tensor.Tensor {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	rng := rand.New(rand.NewSource(seed ^ int64(class+1)*mix))
	tpl := tensor.New(spec.Channels, spec.Size, spec.Size)
	s := float64(spec.Size)
	for c := 0; c < spec.Channels; c++ {
		for k := 0; k < spec.Waves; k++ {
			amp := 0.5 + rng.Float64()*0.5
			fx := float64(rng.Intn(3)+1) / s * 2 * math.Pi
			fy := float64(rng.Intn(3)+1) / s * 2 * math.Pi
			phase := rng.Float64() * 2 * math.Pi
			sign := 1.0
			if rng.Intn(2) == 0 {
				sign = -1
			}
			for y := 0; y < spec.Size; y++ {
				for x := 0; x < spec.Size; x++ {
					v := sign * amp * math.Sin(fx*float64(x)+fy*float64(y)+phase)
					tpl.Data[(c*spec.Size+y)*spec.Size+x] += v
				}
			}
		}
	}
	// Normalize the template to unit peak so every class has a comparable
	// signal level regardless of how its waves interfered.
	peak := 0.0
	for _, v := range tpl.Data {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak > 0 {
		tpl.ScaleInPlace(0.9 / peak)
	}
	return tpl
}

// Generate builds the train and test splits of the given spec. Generation is
// fully deterministic in (spec, seed): each split draws from its own stream,
// so the test split renders on a helper slot of tensor's budget beside the
// train split when one is free, and after it otherwise.
//
// A split is stored in bulk: one array of tensor headers, one of shapes, and
// pixel blocks of blockSamples images each. Every image's Data is a
// capacity-capped window of its block, so an append never reaches its
// neighbour.
func Generate(spec Spec, seed int64) (train, test *Dataset) {
	templates := make([]*tensor.Tensor, spec.Classes)
	for c := 0; c < spec.Classes; c++ {
		templates[c] = classSignature(spec, c, seed)
	}
	per := spec.Channels * spec.Size * spec.Size
	k := blockSamples(per)
	gen := func(n int, rng *rand.Rand) *Dataset {
		d := &Dataset{
			Images:  make([]*tensor.Tensor, n),
			Labels:  make([]int, n),
			Classes: spec.Classes,
			C:       spec.Channels, H: spec.Size, W: spec.Size,
		}
		hdrs := make([]tensor.Tensor, n)
		shapes := make([]int, 3*n)
		cols := make([]int, spec.Size)
		var block []float64
		for i := 0; i < n; i++ {
			j := i % k
			if j == 0 {
				block = make([]float64, min(k, n-i)*per)
			}
			img := &hdrs[i]
			img.Shape = shapes[3*i : 3*i+3 : 3*i+3]
			img.Shape[0], img.Shape[1], img.Shape[2] = spec.Channels, spec.Size, spec.Size
			img.Data = block[j*per : (j+1)*per : (j+1)*per]
			label := drawClass(spec, rng)
			d.Labels[i] = label
			d.Images[i] = img
			renderSample(spec, templates[label], rng, cols, img)
		}
		return d
	}
	genTest := func() { test = gen(spec.TestN, rand.New(rand.NewSource(seed*2+2))) }
	var wg sync.WaitGroup
	beside := tensor.TryGo(&wg, genTest)
	train = gen(spec.TrainN, rand.New(rand.NewSource(seed*2+1)))
	if !beside {
		genTest()
	}
	wg.Wait()
	return train, test
}

// blockSamples is how many images of per pixels share one pixel block: the
// most whose bytes fit 32 KiB and fill whole 8 KiB pages, so a block is
// exactly one of the runtime's small-object size classes and its memory is
// recycled from one generated dataset to the next. A whole-split slab is a
// large object that is not: it raised peak RSS where many cells generate
// in turn. A shape no such block fits gets one image per block.
func blockSamples(per int) int {
	const maxBlock, page = 32 << 10, 8 << 10
	bytes := per * 8
	for k := maxBlock / max(bytes, 1); k > 1; k-- {
		if k*bytes%page == 0 {
			return k
		}
	}
	return 1
}

func drawClass(spec Spec, rng *rand.Rand) int {
	if spec.ClassPrior == nil {
		return rng.Intn(spec.Classes)
	}
	u := rng.Float64()
	cum := 0.0
	for c, p := range spec.ClassPrior {
		cum += p
		if u < cum {
			return c
		}
	}
	return spec.Classes - 1
}

// renderSample draws one sample of the class whose template is tpl into img,
// overwriting every pixel. cols is scratch of spec.Size ints: the template
// column each output column reads under this sample's circular shift.
func renderSample(spec Spec, tpl *tensor.Tensor, rng *rand.Rand, cols []int, img *tensor.Tensor) {
	dx, dy := 0, 0
	if spec.Jitter > 0 {
		dx = rng.Intn(2*spec.Jitter+1) - spec.Jitter
		dy = rng.Intn(2*spec.Jitter+1) - spec.Jitter
	}
	amp := 1.0
	if spec.AmpVar > 0 {
		amp = 1 + (rng.Float64()*2-1)*spec.AmpVar
	}
	size := spec.Size
	for x := range cols {
		cols[x] = ((x+dx)%size + size) % size
	}
	for c := 0; c < spec.Channels; c++ {
		for y := 0; y < size; y++ {
			sy := ((y+dy)%size + size) % size
			src := tpl.Data[(c*size+sy)*size:][:size]
			dst := img.Data[(c*size+y)*size:][:size]
			for x, sx := range cols {
				dst[x] = amp*src[sx] + rng.NormFloat64()*spec.NoiseStd
			}
		}
	}
}
