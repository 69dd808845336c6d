package nn

import "fmt"

// patchGeom is the geometry of one patch expansion: an image [ch, h, w]
// seen through a kk×kk kernel at posH×posW output positions. Element (r, p)
// of the patch matrix — patch row r = (c, ki, kj), position p = (i, j): the
// pixel tap (ki, kj) of channel c sees at output (i, j), or 0 in the
// padding — is xp[off[r]+pos[p]], where xp is the image zero-padded to
// [ch, h+2·pad, w+2·pad] (padInto). The tables depend on the geometry
// alone. A layer keeps one patchGeom for the image size of its last call;
// it lives on the heap, not in the arena, and Clone does not share it.
type patchGeom struct {
	h, w       int // the image size the tables are for; 0×0 before the first call
	posH, posW int
	xpLen      int   // ch·(h+2·pad)·(w+2·pad)
	off        []int // per patch row: (c·hp + ki)·wp + kj
	pos        []int // per position: (i·wp + j)·stride
}

// at returns g set up for an h×w image, rebuilding the tables only when the
// size differs from the previous call's. It panics where the kernel does not
// fit the padded image.
func (g *patchGeom) at(ch, h, w, kk, stride, pad int) *patchGeom {
	if g.h == h && g.w == w {
		return g
	}
	hp, wp := h+2*pad, w+2*pad
	// (hp−kk)/stride + 1 where the kernel fits, at most 0 where it does not.
	posH, posW := (hp-kk+stride)/stride, (wp-kk+stride)/stride
	if posH <= 0 || posW <= 0 {
		panic(fmt.Sprintf("nn: conv output size %dx%d not positive", posH, posW))
	}
	g.h, g.w, g.posH, g.posW, g.xpLen = h, w, posH, posW, ch*hp*wp
	rows := ch * kk * kk
	tables := make([]int, rows+posH*posW) // one allocation for both
	g.off, g.pos = tables[:rows:rows], tables[rows:]
	for r := range g.off {
		g.off[r] = (r/(kk*kk)*hp+r/kk%kk)*wp + r%kk
	}
	for p := range g.pos {
		g.pos[p] = (p/posW*wp + p%posW) * stride
	}
	return g
}

// padInto copies one sample x ([ch, h, w], flat) into the interior of xp
// ([ch, h+2·pad, w+2·pad], flat). It never touches the border, which the
// arena handed out zeroed.
func padInto(xp, x []float64, ch, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for c := 0; c < ch; c++ {
		for i := 0; i < h; i++ {
			di := (c*hp+i+pad)*wp + pad
			copy(xp[di:di+w], x[(c*h+i)*w:(c*h+i+1)*w])
		}
	}
}

// patchPanels writes the matrix B[p][j] = xp[depth[p]+cols[j]] in the
// 8-column panel layout tensor.GemmPanelB reads: every element of
// pb[:tensor.PanelBLen(len(depth), len(cols))], the zero columns that fill
// the last panel included. With (g.off, g.pos) B is the patch matrix, the
// right operand of the forward product weight·B; with (g.pos, g.off) it is
// the patch matrix transposed, the right operand of the weight-gradient
// product dOut·B. Per full panel the eight column offsets are loop
// invariants and each element is one load and one store.
func patchPanels(pb, xp []float64, depth, cols []int) {
	k := len(depth)
	for j0 := 0; j0 < len(cols); j0 += 8 {
		panel := pb[j0*k : (j0+8)*k]
		if cs := cols[j0:]; len(cs) < 8 { // the ragged last panel
			for p, d := range depth {
				row := panel[p*8 : p*8+8]
				for c := range row {
					row[c] = 0
				}
				for c, o := range cs {
					row[c] = xp[d+o]
				}
			}
			return
		}
		c0, c1, c2, c3 := cols[j0], cols[j0+1], cols[j0+2], cols[j0+3]
		c4, c5, c6, c7 := cols[j0+4], cols[j0+5], cols[j0+6], cols[j0+7]
		for p, d := range depth {
			row, src := panel[p*8:p*8+8], xp[d:]
			row[0], row[1], row[2], row[3] = src[c0], src[c1], src[c2], src[c3]
			row[4], row[5], row[6], row[7] = src[c4], src[c5], src[c6], src[c7]
		}
	}
}

// tapSpan returns the output positions [lo, hi) along one axis whose kernel
// tap reads a real pixel: those p in [0, pos) with 0 <= p*stride-pad+tap <
// size. It depends on the tap alone, so col2im computes it once per tap and
// runs its inner loops without a bounds test.
func tapSpan(tap, size, pos, stride, pad int) (lo, hi int) {
	if pad > tap { // smallest p with p*stride >= pad-tap
		lo = min((pad-tap+stride-1)/stride, pos)
	}
	hi = lo
	if end := size + pad - tap; end > 0 { // smallest p with p*stride >= end
		hi = max(lo, min((end+stride-1)/stride, pos))
	}
	return lo, hi
}

// col2im scatters a row-major patch matrix ([ch*kk*kk, posH*posW], flat)
// back into image space: for every kernel tap and position it accumulates
// cols[(c*kk+ki)*kk+kj][i*posW+j] into x[c][i*stride-pad+ki][j*stride-pad+kj],
// skipping taps in padding. x is accumulated into, not overwritten; callers
// zero or bias-fill it first. This is the adjoint of the patch expansion,
// used for the convolution's input gradient and the transposed
// convolution's forward scatter.
func col2im(x, cols []float64, ch, h, w, kk, stride, pad, posH, posW int) {
	posHW := posH * posW
	for ki := 0; ki < kk; ki++ {
		iLo, iHi := tapSpan(ki, h, posH, stride, pad)
		for kj := 0; kj < kk; kj++ {
			jLo, jHi := tapSpan(kj, w, posW, stride, pad)
			n := jHi - jLo
			if n == 0 {
				continue
			}
			dst0 := (iLo*stride-pad+ki)*w + jLo*stride - pad + kj
			src0 := iLo*posW + jLo
			for c := 0; c < ch; c++ {
				row := cols[((c*kk+ki)*kk+kj)*posHW : ((c*kk+ki)*kk+kj+1)*posHW]
				di, si := c*h*w+dst0, src0
				for i := iLo; i < iHi; i++ {
					d, dj := x[di:], 0
					for _, v := range row[si : si+n] {
						d[dj] += v
						dj += stride
					}
					di += stride * w
					si += posW
				}
			}
		}
	}
}
