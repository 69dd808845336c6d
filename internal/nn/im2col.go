package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// patchGeom is the geometry of one patch expansion: an image [ch, h, w]
// seen through a kk×kk kernel at posH×posW output positions. Element (r, p)
// of the patch matrix — patch row r = (c, ki, kj), position p = (i, j): the
// pixel tap (ki, kj) of channel c sees at output (i, j), or 0 in the
// padding — is xp[off[r]+pos[p]], where xp is the image zero-padded to
// [ch, h+2·pad, w+2·pad] (padInto). The tables depend on the geometry
// alone; moves holds them checked and classified for the tensor kernels
// that gather and scatter through them. A layer keeps one patchGeom for
// the image size of its last call; it lives on the heap, not in the arena,
// and Clone does not share it.
type patchGeom struct {
	h, w       int // the image size the tables are for; 0×0 before the first call
	posH, posW int
	xpLen      int   // ch·(h+2·pad)·(w+2·pad)
	off        []int // per patch row: (c·hp + ki)·wp + kj
	pos        []int // per position: (i·wp + j)·stride
	moves      tensor.PatchTables
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
	g.moves = tensor.NewPatchTables(g.off, g.pos, g.xpLen)
	return g
}

// padInto copies one sample x ([ch, h, w], flat) into the interior of xp
// ([ch, h+2·pad, w+2·pad], flat). It never touches the border, which the
// arena handed out zeroed and every scatterInto leaves zeroed.
func padInto(xp, x []float64, ch, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for c := 0; c < ch; c++ {
		tensor.CopyBlock(xp[(c*hp+pad)*wp+pad:], wp, x[c*h*w:], w, h, w)
	}
}

// scatterInto is the adjoint of the patch gather. It adds the row-major
// patch matrix cols ([len(g.off), len(g.pos)]) onto the padded image xp,
// whose interior holds the starting values, in ScatterAddRows' order: each
// pixel takes its kernel taps in ascending (ki, kj) order. It then writes
// xp's interior to x ([ch, h, w], every element) and zeroes xp for the
// next padInto or scatter, since taps that fall into the padding land on
// the border.
func scatterInto(x, xp, cols []float64, g *patchGeom, ch, h, w, pad int) {
	g.moves.ScatterAddRows(xp, cols)
	hp, wp := h+2*pad, w+2*pad
	for c := 0; c < ch; c++ {
		tensor.CopyBlock(x[c*h*w:], w, xp[(c*hp+pad)*wp+pad:], wp, h, w)
	}
	clear(xp)
}
