//go:build !amd64 || purego

package tensor

// The conv data moves have no assembly here: simdOn is constant false, so
// PatchTables' moves and CopyBlock always run their scalar twins.

func gatherPanelsAVX2(pb, src *float64, depth *int, k int, cols *int, cls *uint8, panels, tail int) {
	panic("tensor: gatherPanelsAVX2 unavailable")
}

func scatterAddAVX2(dst, rows *float64, off *int, nrows int, pos *int, npos int, cls *uint8, panels int) {
	panic("tensor: scatterAddAVX2 unavailable")
}

func copyBlockAVX2(dst *float64, dstStride int, src *float64, srcStride, rows, cols int) {
	panic("tensor: copyBlockAVX2 unavailable")
}
