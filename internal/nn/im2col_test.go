package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refIm2col is im2col one element at a time, with the bounds test on every
// element that the production loops hoisted out per kernel tap.
func refIm2col(x []float64, ch, h, w, kk, stride, pad, posH, posW int) []float64 {
	cols := make([]float64, ch*kk*kk*posH*posW)
	for c := 0; c < ch; c++ {
		for ki := 0; ki < kk; ki++ {
			for kj := 0; kj < kk; kj++ {
				for i := 0; i < posH; i++ {
					for j := 0; j < posW; j++ {
						ih, iw := i*stride-pad+ki, j*stride-pad+kj
						if ih >= 0 && ih < h && iw >= 0 && iw < w {
							cols[(((c*kk+ki)*kk+kj)*posH+i)*posW+j] = x[(c*h+ih)*w+iw]
						}
					}
				}
			}
		}
	}
	return cols
}

// refCol2im accumulates in the order col2im documents: taps outermost per
// channel, positions row-major inside.
func refCol2im(x, cols []float64, ch, h, w, kk, stride, pad, posH, posW int) {
	for c := 0; c < ch; c++ {
		for ki := 0; ki < kk; ki++ {
			for kj := 0; kj < kk; kj++ {
				for i := 0; i < posH; i++ {
					for j := 0; j < posW; j++ {
						ih, iw := i*stride-pad+ki, j*stride-pad+kj
						if ih >= 0 && ih < h && iw >= 0 && iw < w {
							x[(c*h+ih)*w+iw] += cols[(((c*kk+ki)*kk+kj)*posH+i)*posW+j]
						}
					}
				}
			}
		}
	}
}

// TestIm2colCol2imGeometryProperty drives both routines over random
// geometry — kernels 1–5, strides 1–3, padding 0–3 (so also padding at least
// as wide as the kernel, where whole taps see no pixel), non-square images,
// widths that are no multiple of anything — against the per-element
// references, bit for bit on random reals, and checks that they are adjoint:
// ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ exactly, on small integers whose sums
// float64 represents without rounding.
func TestIm2colCol2imGeometryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	poison := math.Float64frombits(0x7FF8_0000_0BAD_F00D)
	cases := 0
	for cases < 600 {
		ch, kk, stride, pad := 1+rng.Intn(3), 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(4)
		h, w := 1+rng.Intn(13), 1+rng.Intn(13)
		if h+2*pad < kk || w+2*pad < kk {
			continue
		}
		cases++
		posH, posW := (h+2*pad-kk)/stride+1, (w+2*pad-kk)/stride+1
		geom := [8]int{ch, h, w, kk, stride, pad, posH, posW}

		x := make([]float64, ch*h*w)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refIm2col(x, ch, h, w, kk, stride, pad, posH, posW)
		got := make([]float64, len(want))
		for i := range got {
			got[i] = poison // im2col must write every element
		}
		im2col(got, x, ch, h, w, kk, stride, pad, posH, posW)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("im2col %v: cols[%d] = %v, want %v", geom, i, got[i], want[i])
			}
		}

		y := make([]float64, len(want))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		gotX, wantX := make([]float64, len(x)), make([]float64, len(x))
		for i := range gotX {
			gotX[i] = rng.NormFloat64() // col2im accumulates onto what is there
			wantX[i] = gotX[i]
		}
		col2im(gotX, y, ch, h, w, kk, stride, pad, posH, posW)
		refCol2im(wantX, y, ch, h, w, kk, stride, pad, posH, posW)
		for i := range gotX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("col2im %v: x[%d] = %v, want %v", geom, i, gotX[i], wantX[i])
			}
		}

		for i := range x {
			x[i] = float64(rng.Intn(17) - 8)
		}
		for i := range y {
			y[i] = float64(rng.Intn(17) - 8)
		}
		im2col(got, x, ch, h, w, kk, stride, pad, posH, posW)
		clear(gotX)
		col2im(gotX, y, ch, h, w, kk, stride, pad, posH, posW)
		var lhs, rhs float64
		for i := range got {
			lhs += got[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * gotX[i]
		}
		if lhs != rhs {
			t.Fatalf("adjoint %v: <im2col(x), y> = %v, <x, col2im(y)> = %v", geom, lhs, rhs)
		}
	}
}
