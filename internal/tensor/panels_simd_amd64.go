//go:build amd64 && !purego

package tensor

//go:noescape
func gatherPanelsAVX2(pb, src *float64, depth *int, k int, cols *int, cls *uint8, panels, tail int)

//go:noescape
func scatterAddAVX2(dst, rows *float64, off *int, nrows int, pos *int, npos int, cls *uint8, panels int)

//go:noescape
func copyBlockAVX2(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)
