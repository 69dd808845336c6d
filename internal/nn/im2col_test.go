package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// refIm2col is the row-major patch matrix ([ch*kk*kk, posH*posW], flat) the
// layers were lowered onto before they wrote panels, one element at a time
// with a bounds test on every element: cols[(c*kk+ki)*kk+kj][i*posW+j] is
// the pixel the kernel tap (ki, kj) sees at output position (i, j), or 0
// where the tap falls into padding.
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

// refPanels packs row-major B (k×n) — or, with trans, Bᵀ of a stored n×k —
// into tensor.GemmPanelB's layout from the formula in its comment.
func refPanels(b []float64, k, n int, trans bool) []float64 {
	pb := make([]float64, tensor.PanelBLen(k, n))
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			v := b[p*n+j]
			if trans {
				v = b[j*k+p]
			}
			pb[((j/8)*k+p)*8+j%8] = v
		}
	}
	return pb
}

// refCol2im is the col2im the layers ran before the table scatter: it
// accumulates taps outermost per channel, positions row-major inside, and
// skips the taps that fall into padding.
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

// TestIm2colCol2imGeometryProperty drives the patch gather and the table
// scatter over random geometry — kernels 1–5, strides 1–3, padding 0–3 (so
// also padding at least as wide as the kernel, where whole taps see no
// pixel), non-square images, widths that are no multiple of anything,
// position and patch-row counts that leave a ragged last panel,
// single-pixel outputs — against the per-element references, bit for bit
// on random reals: padInto + GatherPanels in both table orders
// against refIm2col packed by refPanels, zero columns of the last panel
// included, and scatterInto onto a padded buffer holding starting values
// against refCol2im onto the same values, after which the buffer must be
// all zeros again. It also checks that the two are adjoint,
// ⟨patches(x), y⟩ = ⟨x, scatter(y)⟩ exactly, on small integers whose sums
// float64 represents without rounding.
func TestIm2colCol2imGeometryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	poison := math.Float64frombits(0x7FF8_0000_0BAD_F00D)
	var seen struct{ raggedPos, raggedRows, onePixel, widePad int }
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
		rows, npos := ch*kk*kk, posH*posW
		if npos%8 != 0 {
			seen.raggedPos++
		}
		if rows%8 != 0 {
			seen.raggedRows++
		}
		if npos == 1 {
			seen.onePixel++
		}
		if pad >= kk {
			seen.widePad++
		}

		x := make([]float64, ch*h*w)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var g patchGeom
		g.at(ch, h, w, kk, stride, pad)
		if g.posH != posH || g.posW != posW || len(g.off) != rows || len(g.pos) != npos {
			t.Fatalf("patchGeom %v: %dx%d positions, %d rows", geom, g.posH, g.posW, len(g.off))
		}
		xp := make([]float64, g.xpLen)
		padInto(xp, x, ch, h, w, pad)
		cols := refIm2col(x, ch, h, w, kk, stride, pad, posH, posW)
		got := make([]float64, max(tensor.PanelBLen(rows, npos), tensor.PanelBLen(npos, rows)))
		for transposed, want := range map[bool][]float64{
			false: refPanels(cols, rows, npos, false),
			true:  refPanels(cols, npos, rows, true),
		} {
			for i := range got {
				got[i] = poison // GatherPanels must write every element
			}
			g.moves.GatherPanels(got, xp, transposed)
			for i, w := range want {
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("GatherPanels(transposed=%v) %v: pb[%d] = %v, want %v", transposed, geom, i, got[i], w)
				}
			}
		}

		y := make([]float64, len(cols))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		gotX, wantX := make([]float64, len(x)), make([]float64, len(x))
		for i := range gotX {
			gotX[i] = poison             // scatterInto must write every element
			wantX[i] = rng.NormFloat64() // the scatter adds onto what is there
		}
		clear(xp)
		padInto(xp, wantX, ch, h, w, pad)
		scatterInto(gotX, xp, y, &g, ch, h, w, pad)
		refCol2im(wantX, y, ch, h, w, kk, stride, pad, posH, posW)
		for i := range gotX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("scatterInto %v: x[%d] = %v, want %v", geom, i, gotX[i], wantX[i])
			}
		}
		for i, v := range xp {
			if math.Float64bits(v) != 0 {
				t.Fatalf("scatterInto %v: padded buffer left %v at %d, want +0", geom, v, i)
			}
		}

		for i := range x {
			x[i] = float64(rng.Intn(17) - 8)
		}
		for i := range y {
			y[i] = float64(rng.Intn(17) - 8)
		}
		padInto(xp, x, ch, h, w, pad)
		g.moves.GatherPanels(got, xp, false)
		clear(xp)
		scatterInto(gotX, xp, y, &g, ch, h, w, pad)
		var lhs, rhs float64
		for r := 0; r < rows; r++ {
			for p := 0; p < npos; p++ {
				lhs += got[((p/8)*rows+r)*8+p%8] * y[r*npos+p]
			}
		}
		for i := range x {
			rhs += x[i] * gotX[i]
		}
		if lhs != rhs {
			t.Fatalf("adjoint %v: <patches(x), y> = %v, <x, scatter(y)> = %v", geom, lhs, rhs)
		}
	}
	if seen.raggedPos == 0 || seen.raggedRows == 0 || seen.onePixel == 0 || seen.widePad == 0 {
		t.Fatalf("geometry classes not all drawn: %+v", seen)
	}
}
