package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// convTables builds the offset tables of a patch geometry as nn's patchGeom
// does: per patch row (c, ki, kj) of a kk×kk kernel over a [ch, h, w] image
// zero-padded by pad, off = (c·hp + ki)·wp + kj; per output position (i, j),
// pos = (i·wp + j)·stride; xpLen is the padded image's length.
func convTables(ch, h, w, kk, stride, pad int) (off, pos []int, xpLen int) {
	hp, wp := h+2*pad, w+2*pad
	posH, posW := (hp-kk)/stride+1, (wp-kk)/stride+1
	for r := 0; r < ch*kk*kk; r++ {
		off = append(off, (r/(kk*kk)*hp+r/kk%kk)*wp+r%kk)
	}
	for p := 0; p < posH*posW; p++ {
		pos = append(pos, (p/posW*wp+p%posW)*stride)
	}
	return off, pos, ch * hp * wp
}

// moveGeoms are the patch geometries the zoo's layers move data through
// (the conv layers' input images, the transposed convolutions' output
// images) and a few whose panels are all ragged, end in a ragged panel or
// whose stride-2 panels reach the buffer's end.
var moveGeoms = []struct {
	name                      string
	ch, h, w, kk, stride, pad int
}{
	{"fashion1", 1, 16, 16, 3, 2, 1},
	{"fashion2", 8, 8, 8, 3, 2, 1},
	{"deep1", 3, 16, 16, 3, 1, 1},
	{"deep2", 8, 16, 16, 3, 2, 1},
	{"deep3", 8, 8, 8, 3, 1, 1},
	{"deep4", 16, 8, 8, 3, 2, 1},
	{"deep5", 16, 4, 4, 3, 1, 1},
	{"deep6", 32, 4, 4, 3, 2, 1},
	{"generator-conv", 8, 16, 16, 3, 1, 1},
	{"generatorT1", 16, 8, 8, 4, 2, 1},
	{"generatorT2", 8, 16, 16, 4, 2, 1},
	{"ragged-5x5", 2, 5, 5, 3, 1, 1},
	{"ragged-stride3", 3, 11, 13, 2, 3, 0},
	{"stride2-at-end", 1, 17, 17, 1, 2, 0},
	{"wide-pad", 2, 5, 5, 5, 1, 4},
}

// specialFloats fills v with normal reals and, with probability pSpecial
// per element, one of −0, +0, ±Inf, a subnormal or a quiet or signalling
// NaN with a payload of its own.
func specialFloats(rng *rand.Rand, v []float64, pSpecial float64) {
	for i := range v {
		v[i] = rng.NormFloat64()
		if rng.Float64() >= pSpecial {
			continue
		}
		switch rng.Intn(6) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
			v[i] = 0
		case 2:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			v[i] = math.Float64frombits(uint64(1 + rng.Intn(1<<20)))
		case 4:
			v[i] = math.Float64frombits(0x7FF8_0000_0000_0000 | uint64(1+rng.Intn(1<<30)))
		default:
			v[i] = math.Float64frombits(0xFFF0_0000_0000_0000 | uint64(1+rng.Intn(1<<30)))
		}
	}
}

// moveTiers runs fn once per tier this CPU and build offer — avx2 (the
// one SIMD tier, AVX-512 CPUs included), scalar — with SIMD forced off for
// the second.
func moveTiers(t *testing.T, fn func(tier string)) {
	simd := *tensor.SIMDOn
	defer func() { *tensor.SIMDOn = simd }()
	if simd {
		fn("avx2")
	}
	*tensor.SIMDOn = false
	fn("scalar")
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestConvMovesMatchScalarTwin holds every tier of GatherPanels,
// ScatterAddRows and CopyBlock to the formula in their comments, bit for
// bit, on the offset tables of every zoo layer and of geometries with
// ragged panels: the gather in both table orders over every element of its
// panels (the zero columns of the last one included), the scatter adding
// rows in ascending r, then ascending j, onto a padded buffer, and the
// image copied into that buffer's interior and back out, channel by
// channel. Inputs carry −0, ±Inf,
// subnormals and NaN payloads, sparsely and not at all (rounding then shows
// any change of the add order). Each tier runs a batch of samples, one
// buffer each, fanned out at 1, 2 and 8 workers as a convolution does.
// -v logs the tier that ran first.
func TestConvMovesMatchScalarTwin(t *testing.T) {
	defer tensor.SetWorkers(0)
	var seen [3]int // panels per class over both tables
	for _, g := range moveGeoms {
		off, pos, xpLen := convTables(g.ch, g.h, g.w, g.kk, g.stride, g.pad)
		offCls, posCls := tensor.PanelClasses(tensor.NewPatchTables(off, pos, xpLen))
		for _, c := range append(offCls, posCls...) {
			seen[c]++
		}
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("panels per class (indexed, contiguous, stride 2) %v: a class is not drawn", seen)
	}
	logged := false
	moveTiers(t, func(tier string) {
		if !logged {
			t.Logf("conv move tier: %s", tier)
			logged = true
		}
		rng := rand.New(rand.NewSource(45))
		const batch = 5
		for _, g := range moveGeoms {
			off, pos, xpLen := convTables(g.ch, g.h, g.w, g.kk, g.stride, g.pad)
			pt := tensor.NewPatchTables(off, pos, xpLen)
			for _, workers := range []int{1, 2, 8} {
				for _, pSpecial := range []float64{0, 0.05} {
					name := fmt.Sprintf("%s/%s/workers=%d/special=%v", tier, g.name, workers, pSpecial)
					tensor.SetWorkers(workers)
					src := make([][]float64, batch)
					rows := make([][]float64, batch)
					for b := range src {
						src[b] = make([]float64, xpLen)
						specialFloats(rng, src[b], pSpecial)
						rows[b] = make([]float64, len(off)*len(pos))
						specialFloats(rng, rows[b], pSpecial)
					}
					for _, transposed := range []bool{false, true} {
						depth, cols := off, pos
						if transposed {
							depth, cols = pos, off
						}
						got := make([][]float64, batch)
						for b := range got {
							got[b] = make([]float64, tensor.PanelBLen(len(depth), len(cols)))
							specialFloats(rng, got[b], 1) // every element must be written
						}
						tensor.ParallelFor(batch, 1, func(lo, hi int) {
							for b := lo; b < hi; b++ {
								pt.GatherPanels(got[b], src[b], transposed)
							}
						})
						for b := range got {
							want := make([]float64, len(got[b]))
							for j, o := range cols {
								for p, d := range depth {
									want[((j/8)*len(depth)+p)*8+j%8] = src[b][d+o]
								}
							}
							sameBits(t, name+fmt.Sprintf("/gather depth=%d", len(depth)), got[b], want)
						}
					}
					got := make([][]float64, batch)
					for b := range got {
						got[b] = append([]float64(nil), src[b]...)
					}
					tensor.ParallelFor(batch, 1, func(lo, hi int) {
						for b := lo; b < hi; b++ {
							pt.ScatterAddRows(got[b], rows[b])
						}
					})
					for b := range got {
						want := append([]float64(nil), src[b]...)
						for r, o := range off {
							for j, p := range pos {
								want[o+p] += rows[b][r*len(pos)+j]
							}
						}
						sameBits(t, name+"/scatter", got[b], want)
					}
					hp, wp := g.h+2*g.pad, g.w+2*g.pad
					img, back := make([]float64, g.ch*g.h*g.w), make([]float64, g.ch*g.h*g.w)
					specialFloats(rng, img, pSpecial)
					padded, want := slices.Clone(src[0]), slices.Clone(src[0])
					for c := range g.ch {
						at := (c*hp+g.pad)*wp + g.pad
						tensor.CopyBlock(padded[at:], wp, img[c*g.h*g.w:], g.w, g.h, g.w)
						tensor.CopyBlock(back[c*g.h*g.w:], g.w, padded[at:], wp, g.h, g.w)
						for i := range g.h {
							copy(want[at+i*wp:at+i*wp+g.w], img[(c*g.h+i)*g.w:])
						}
					}
					sameBits(t, name+"/copy in", padded, want)
					sameBits(t, name+"/copy out", back, img)
				}
			}
		}
	})
}

// TestConvMovesRejectOutOfRangeTables: the assembly tier indexes without
// bounds checks, so a table pair that reaches outside the image, or a
// buffer shorter than the tables ask for, must panic before anything moves.
func TestConvMovesRejectOutOfRangeTables(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	pos := []int{0, 1, 2, 3, 4, 5, 6, 7}
	mustPanic("past the end", func() { tensor.NewPatchTables([]int{1}, pos, 8) })
	mustPanic("before the start", func() { tensor.NewPatchTables([]int{-1}, pos, 16) })
	mustPanic("empty table", func() { tensor.NewPatchTables(nil, pos, 16) })
	pt := tensor.NewPatchTables([]int{0, 1}, pos, 9)
	mustPanic("gather short panels", func() { pt.GatherPanels(make([]float64, 15), make([]float64, 9), false) })
	mustPanic("gather short image", func() { pt.GatherPanels(make([]float64, 16), make([]float64, 8), true) })
	mustPanic("scatter short image", func() { pt.ScatterAddRows(make([]float64, 8), make([]float64, 16)) })
	mustPanic("scatter short rows", func() { pt.ScatterAddRows(make([]float64, 9), make([]float64, 15)) })
	mustPanic("copy past the end", func() { tensor.CopyBlock(make([]float64, 10), 4, make([]float64, 16), 4, 3, 3) })
	mustPanic("copy rows overlap", func() { tensor.CopyBlock(make([]float64, 16), 2, make([]float64, 16), 4, 3, 3) })
}
