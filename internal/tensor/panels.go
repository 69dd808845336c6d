package tensor

import "fmt"

// The data moves of a convolution's GEMM lowering, driven by the two offset
// tables of a patch geometry: off (one base offset per patch row) and pos
// (one offset per output position) into the zero-padded image. GatherPanels
// writes the patch matrix in GemmPanelB's layout; ScatterAddRows is its
// adjoint, the col2im of a row-major patch matrix. Both are pure moves or
// element-wise adds in a fixed order, so every tier gives the same bits.
// On AVX2 (AVX-512 CPUs included) every 8-column panel of a table is
// classified once, by its two halves of four: where each half's offsets are
// contiguous they move as whole vectors, where they are two apart as
// vectors and a permute, any others by index (VGATHERQPD, or one lane at a
// time in the scatter). Classifying halves catches the panels that straddle
// two image rows of four positions, as most of a 16×16 model's do. The
// scalar twin runs on every other build.

// Panel classes, one byte per panel. A half is the panel's columns
// j0+4h .. j0+4h+3, its base cols[j0+4h].
const (
	panelIndexed = iota // any offsets, or fewer than 8: moved by index
	panelContig         // each half at base + c, c = 0..3
	panelStride2        // each half at base + 2c
)

// PatchTables is the offset-table pair of a patch geometry, checked and
// classified once so that the moves reading it check only the length of
// the buffers they are handed. A layer builds it with the tables, once per
// image size.
type PatchTables struct {
	off, pos panelTable // each as the column table of a gather
	n        int        // length of the padded image
}

// panelTable is one offset table seen as the column table of a move.
type panelTable struct {
	offs []int
	cls  []uint8 // one class per panel; a ragged last one is indexed
}

// NewPatchTables checks that every off[r]+pos[p] indexes a padded image of
// n elements and classifies both tables' panels; it keeps the tables, not
// copies. It panics on an empty table or an offset outside the image, since
// the assembly tier indexes without bounds checks.
func NewPatchTables(off, pos []int, n int) PatchTables {
	if len(off) == 0 || len(pos) == 0 {
		panic(fmt.Sprintf("tensor: patch tables of %d and %d offsets", len(off), len(pos)))
	}
	offLo, offHi := span(off)
	posLo, posHi := span(pos)
	if offLo+posLo < 0 || offHi+posHi >= n {
		panic(fmt.Sprintf("tensor: patch tables of %d and %d offsets reach [%d, %d] outside an image of %d",
			len(off), len(pos), offLo+posLo, offHi+posHi, n))
	}
	offPanels := (len(off) + 7) / 8
	cls := make([]uint8, offPanels+(len(pos)+7)/8) // one allocation for both
	return PatchTables{
		off: classifyPanels(cls[:offPanels:offPanels], off, posHi, n),
		pos: classifyPanels(cls[offPanels:], pos, offHi, n),
		n:   n,
	}
}

// classifyPanels fills cls with the classes of the panels of offs as a
// gather's columns against depth offsets up to depthHi. A stride-2 half
// moves the 8 consecutive elements from its base, so it keeps its class
// only where the 8th is still inside the image.
func classifyPanels(cls []uint8, offs []int, depthHi, n int) panelTable {
	t := panelTable{offs: offs, cls: cls}
	for p := range len(offs) / 8 {
		cs := offs[p*8 : p*8+8]
		contig, stride2 := true, cs[0]+7+depthHi < n && cs[4]+7+depthHi < n
		for c, o := range cs {
			contig = contig && o == cs[c&4]+(c&3)
			stride2 = stride2 && o == cs[c&4]+2*(c&3)
		}
		switch {
		case contig:
			t.cls[p] = panelContig
		case stride2:
			t.cls[p] = panelStride2
		}
	}
	return t
}

// span returns the smallest and largest entry of a non-empty table.
func span(t []int) (lo, hi int) {
	lo, hi = t[0], t[0]
	for _, v := range t[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// GatherPanels writes the matrix B[p][j] = src[depth[p]+cols[j]] in the
// 8-column panel layout GemmPanelB reads: every element of
// pb[:PanelBLen(len(depth), len(cols))], the zero columns that fill the last
// panel included. With (depth, cols) = (off, pos) B is the patch matrix of
// the padded image src; transposed, (pos, off), it is its transpose.
func (t *PatchTables) GatherPanels(pb, src []float64, transposed bool) {
	depth, cols := t.off.offs, &t.pos
	if transposed {
		depth, cols = t.pos.offs, &t.off
	}
	k, n := len(depth), len(cols.offs)
	if len(pb) < PanelBLen(k, n) || len(src) < t.n {
		panic(fmt.Sprintf("tensor: GatherPanels buffers %d, %d for %dx%d panels of an image of %d", len(pb), len(src), k, n, t.n))
	}
	if simdOn {
		gatherPanelsAVX2(&pb[0], &src[0], &depth[0], k, &cols.offs[0], &cols.cls[0], len(cols.cls), n%8)
		return
	}
	full := n / 8 * 8
	gatherPanelsScalar(pb, src, depth, cols.offs[:full])
	if cs := cols.offs[full:]; len(cs) > 0 { // the ragged last panel
		panel := pb[full*k : (full+8)*k]
		for p, d := range depth {
			row := panel[p*8 : p*8+8]
			clear(row)
			for c, o := range cs {
				row[c] = src[d+o]
			}
		}
	}
}

// gatherPanelsScalar is GatherPanels' scalar twin over full panels: per
// panel the eight column offsets are loop invariants and each element is
// one load and one store.
func gatherPanelsScalar(pb, src []float64, depth, cols []int) {
	k := len(depth)
	for j0 := 0; j0 < len(cols); j0 += 8 {
		panel := pb[j0*k : (j0+8)*k]
		c0, c1, c2, c3 := cols[j0], cols[j0+1], cols[j0+2], cols[j0+3]
		c4, c5, c6, c7 := cols[j0+4], cols[j0+5], cols[j0+6], cols[j0+7]
		for p, d := range depth {
			row, s := panel[p*8:p*8+8], src[d:]
			row[0], row[1], row[2], row[3] = s[c0], s[c1], s[c2], s[c3]
			row[4], row[5], row[6], row[7] = s[c4], s[c5], s[c6], s[c7]
		}
	}
}

// ScatterAddRows adds rows[r*len(pos)+j] to dst[off[r]+pos[j]] for every
// patch row r and position j: r ascending, then j ascending, so an element
// of dst takes its terms in ascending r. On a convolution's padded image
// each pixel takes its kernel taps in ascending (ki, kj) order, the order
// col2im added them in.
func (t *PatchTables) ScatterAddRows(dst, rows []float64) {
	off, pos := t.off.offs, t.pos.offs
	if len(dst) < t.n || len(rows) < len(off)*len(pos) {
		panic(fmt.Sprintf("tensor: ScatterAddRows buffers %d, %d for %dx%d rows onto an image of %d", len(dst), len(rows), len(off), len(pos), t.n))
	}
	if simdOn {
		scatterAddAVX2(&dst[0], &rows[0], &off[0], len(off), &pos[0], len(pos), &t.pos.cls[0], len(pos)/8)
		return
	}
	for r, o := range off {
		row, d := rows[r*len(pos):(r+1)*len(pos)], dst[o:]
		for j, p := range pos {
			d[p] += row[j]
		}
	}
}

// CopyBlock copies a rows×cols block from src, whose rows start srcStride
// elements apart, to dst, whose rows start dstStride apart: one channel of
// an image into the interior of its zero-padded copy, or back out. Rows
// are short in a convolution (4 to 16 elements), so on AVX2 a row moves as
// whole vectors rather than as a call to copy.
func CopyBlock(dst []float64, dstStride int, src []float64, srcStride, rows, cols int) {
	if rows <= 0 || cols <= 0 {
		return
	}
	if cols > min(dstStride, srcStride) || (rows-1)*dstStride+cols > len(dst) || (rows-1)*srcStride+cols > len(src) {
		panic(fmt.Sprintf("tensor: CopyBlock of %dx%d with strides %d, %d over %d and %d elements", rows, cols, dstStride, srcStride, len(dst), len(src)))
	}
	if simdOn {
		copyBlockAVX2(&dst[0], dstStride, &src[0], srcStride, rows, cols)
		return
	}
	for r := range rows {
		copy(dst[r*dstStride:r*dstStride+cols], src[r*srcStride:r*srcStride+cols])
	}
}
