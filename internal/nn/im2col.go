package nn

// tapSpan returns the output positions [lo, hi) along one axis whose kernel
// tap reads a real pixel: those p in [0, pos) with 0 <= p*stride-pad+tap <
// size. It depends on the tap alone, so im2col and col2im compute it once
// per tap and run the inner loops without a bounds test.
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

// im2col expands one sample x ([ch, h, w], flat) into the patch matrix
// cols ([ch*kk*kk, posH*posW], flat): cols[(c*kk+ki)*kk+kj][i*posW+j] is the
// pixel the kernel tap (ki, kj) sees at output position (i, j), or 0 where
// the tap falls into padding. Every element of cols is written. With this
// layout a convolution forward pass is the single product
// weight[outC, ch*kk*kk] · cols, and the transposed convolution's backward
// pass is the same expansion applied to the output gradient.
func im2col(cols, x []float64, ch, h, w, kk, stride, pad, posH, posW int) {
	posHW := posH * posW
	for ki := 0; ki < kk; ki++ {
		iLo, iHi := tapSpan(ki, h, posH, stride, pad)
		for kj := 0; kj < kk; kj++ {
			jLo, jHi := tapSpan(kj, w, posW, stride, pad)
			n := jHi - jLo
			rows := iHi - iLo
			if n == 0 {
				rows = 0 // the tap sees padding only
			}
			// A tap that sees any padding has its block cleared whole before
			// the real pixels go in: on rows of 4–16 values one clear costs
			// less than zeroing the margins row by row.
			padded := rows < posH || n < posW
			// The first real pixel the tap reads and where it lands; one
			// output row further is stride image rows further.
			src0 := (iLo*stride-pad+ki)*w + jLo*stride - pad + kj
			dst0 := iLo*posW + jLo
			for c := 0; c < ch; c++ {
				row := cols[((c*kk+ki)*kk+kj)*posHW : ((c*kk+ki)*kk+kj+1)*posHW]
				if padded {
					clear(row)
				}
				si, di := c*h*w+src0, dst0
				for i := 0; i < rows; i++ {
					d, s := row[di:di+n], x[si:]
					if stride == 1 {
						copy(d, s)
					} else {
						sj := 0
						for j := range d {
							d[j] = s[sj]
							sj += stride
						}
					}
					si += stride * w
					di += posW
				}
			}
		}
	}
}

// col2im scatters a patch matrix back into image space: for every kernel
// tap and position it accumulates cols[(c*kk+ki)*kk+kj][i*posW+j] into
// x[c][i*stride-pad+ki][j*stride-pad+kj], skipping taps in padding. x is
// accumulated into, not overwritten; callers zero or bias-fill it first.
// This is the adjoint of im2col, used for the convolution's input gradient
// and the transposed convolution's forward scatter.
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
