package codec

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Block is the int8 quantization block length: one float64 scale factor per
// Block consecutive elements of the quantized array. It equals the tensor
// kernel family's block so the quantized-domain geometry maps 1:1 onto
// Int8BlockDots calls.
const Block = tensor.Int8Block

// Frame is one client's compressed round update.
//
// Every frame except the dense raw one represents the delta Δ = w − g
// against the round's global model; the dense raw frame carries the weight
// vector w itself, verbatim, so that the lossless "raw" codec reconstructs
// clients' updates bit-identically to an uncompressed run (g + (w−g) would
// re-round and break that equivalence).
type Frame struct {
	// Spec is the codec configuration that produced the frame.
	Spec Spec
	// Dim is the full model dimension.
	Dim int
	// Idx, when non-nil, lists the kept coordinates in strictly ascending
	// order (top-k sparsification); nil means dense.
	Idx []int32
	// Val holds the frame's float64 values: the dequantized delta at each
	// kept coordinate for sparse frames, the full delta for dense fp16
	// frames, the full weight vector for dense raw frames. It is nil for
	// dense int8 frames, whose storage is Q+Scales alone.
	Val []float64
	// Q and Scales are the int8 storage: quantized values and one scale
	// per Block elements of the quantized array (Q[i] decodes to
	// Scales[i/Block]*Q[i]). Nil for raw and fp16 frames.
	Q      []int8
	Scales []float64
}

// IsDelta reports whether the frame's values are a delta against the global
// model (true for everything except dense raw frames, which carry weights).
func (f *Frame) IsDelta() bool {
	return f.Spec.Quant != Raw || f.Idx != nil
}

// quantLen is the number of stored values (k for sparse, Dim for dense).
func (f *Frame) quantLen() int {
	if f.Idx != nil {
		return len(f.Idx)
	}
	return f.Dim
}

// Reconstruct returns the dense weight vector the frame encodes, given the
// round's global model. The result is freshly allocated.
func (f *Frame) Reconstruct(global []float64) []float64 {
	if len(global) != f.Dim {
		panic(fmt.Sprintf("codec: Reconstruct dim %d against global of %d", f.Dim, len(global)))
	}
	if !f.IsDelta() {
		out := make([]float64, f.Dim)
		copy(out, f.Val)
		return out
	}
	out := make([]float64, f.Dim)
	copy(out, global)
	f.AddDelta(out)
	return out
}

// AddDelta adds the frame's delta into dst in place. It panics on dense raw
// frames, which carry no delta. Sparse frames touch only their k kept
// coordinates, so accumulating a client history (FoolsGold) costs O(k)
// instead of O(d).
func (f *Frame) AddDelta(dst []float64) {
	if !f.IsDelta() {
		panic("codec: AddDelta on a dense raw frame (carries weights, not a delta)")
	}
	if len(dst) != f.Dim {
		panic(fmt.Sprintf("codec: AddDelta dim %d into %d", f.Dim, len(dst)))
	}
	if f.Idx != nil {
		for t, id := range f.Idx {
			dst[id] += f.Val[t]
		}
		return
	}
	if f.Spec.Quant == Int8 {
		for i := range dst {
			dst[i] += f.Scales[i/Block] * float64(f.Q[i])
		}
		return
	}
	for i := range dst {
		dst[i] += f.Val[i]
	}
}

// Encoder compresses per-client round updates under one Spec. When the spec
// enables error feedback the encoder carries each client's residual across
// rounds, so it must be reused for the whole run; without EF its only state
// is scratch. Encode is not safe for concurrent use.
type Encoder struct {
	spec Spec
	res  map[int][]float64
	// delta, abs and sel are the O(d) work arrays of one encode (the delta,
	// its magnitudes, the quickselect copy), kept across calls; only what a
	// returned Frame references is allocated per encode.
	delta, abs, sel []float64
}

// NewEncoder returns an encoder for the spec, or nil for a disabled spec.
// It panics on an invalid spec; validate user input first.
func NewEncoder(spec Spec) *Encoder {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if !spec.Enabled() {
		return nil
	}
	e := &Encoder{spec: spec}
	if spec.EF {
		e.res = make(map[int][]float64)
	}
	return e
}

// Spec returns the encoder's configuration.
func (e *Encoder) Spec() Spec { return e.spec }

// Encode compresses one client's round update (weights trained from
// global). Deterministic: the int8 rounding stream is keyed by (clientID,
// round) and consumed in ascending position order, and top-k selection
// breaks magnitude ties by lower index.
func (e *Encoder) Encode(clientID, round int, global, weights []float64) *Frame {
	dim := len(global)
	if len(weights) != dim {
		panic(fmt.Sprintf("codec: Encode weights dim %d vs global %d", len(weights), dim))
	}
	if e.spec.Quant == Raw && e.spec.TopK == 0 {
		// Lossless dense control: ship the weights verbatim.
		val := make([]float64, dim)
		copy(val, weights)
		return &Frame{Spec: e.spec, Dim: dim, Val: val}
	}

	// With error feedback the delta is built in the client's residual buffer,
	// which it then becomes again; otherwise in scratch.
	delta := e.res[clientID]
	if delta != nil {
		for i := range delta {
			delta[i] = weights[i] - global[i] + delta[i]
		}
	} else {
		if e.spec.EF {
			delta = make([]float64, dim)
		} else {
			delta = scratch(&e.delta, dim)
		}
		for i := range delta {
			delta[i] = weights[i] - global[i]
		}
	}

	f := &Frame{Spec: e.spec, Dim: dim}
	vals := delta
	if e.spec.TopK > 0 {
		f.Idx = e.topKIndices(delta, e.spec.TopK)
		vals = make([]float64, len(f.Idx))
		for t, id := range f.Idx {
			vals[t] = delta[id]
		}
	}

	switch e.spec.Quant {
	case Raw:
		f.Val = vals // sparse raw: vals is already a fresh gather
	case FP16:
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = f16ToF64(f64ToF16(v))
		}
		f.Val = out
	case Int8:
		f.Q, f.Scales = quantizeInt8(vals, newRoundStream(clientID, round))
		if f.Idx != nil {
			// Sparse int8 keeps the dequantized values alongside Q so the
			// merge geometry and AddDelta stay O(k) float operations.
			out := make([]float64, len(vals))
			for i := range out {
				out[i] = f.Scales[i/Block] * float64(f.Q[i])
			}
			f.Val = out
		}
	}

	if e.spec.EF {
		// Residual = what the frame failed to carry. Reuse delta in place:
		// subtract the encoded delta at every stored coordinate.
		if f.Idx != nil {
			for t, id := range f.Idx {
				delta[id] -= f.Val[t]
			}
		} else if f.Spec.Quant == Int8 {
			for i := range delta {
				delta[i] -= f.Scales[i/Block] * float64(f.Q[i])
			}
		} else {
			for i := range delta {
				delta[i] -= f.Val[i]
			}
		}
		e.res[clientID] = delta
	}
	return f
}

// scratch returns *buf resized to n, growing it only when too small. The
// contents are unspecified.
func scratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// topKIndices returns the ⌈frac·d⌉ largest-|v| coordinate indices in
// ascending index order. Magnitude ties break toward the lower index, so
// the selection is a pure function of the delta. The (|v| desc, index asc)
// ranking is a total order, so the kept set is unique and any selection
// algorithm yields it; a k-bounded min-heap does so in O(d log k) instead
// of sorting all d coordinates.
func (e *Encoder) topKIndices(delta []float64, frac float64) []int32 {
	d := len(delta)
	k := int(math.Ceil(frac * float64(d)))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	abs := scratch(&e.abs, d)
	for i, v := range delta {
		abs[i] = math.Abs(v)
	}
	// The kept set is exactly: every coordinate whose magnitude strictly
	// exceeds the k-th largest, plus the lowest-index coordinates at that
	// threshold until k are chosen. Selecting the threshold value first
	// (O(d) expected) and then collecting in two sequential passes is
	// cache-friendly and allocation-light.
	t := kthLargest(abs, k, scratch(&e.sel, d))
	idx := make([]int32, 0, k)
	for i, a := range abs {
		if a > t {
			idx = append(idx, int32(i))
		}
	}
	for i, need := 0, k-len(idx); need > 0; i++ {
		if abs[i] == t {
			idx = append(idx, int32(i))
			need--
		}
	}
	slices.Sort(idx)
	return idx
}

// kthLargest returns the k-th largest value of vals (1 ≤ k ≤ len(vals))
// without reordering the input: Hoare-partition quickselect with
// median-of-three pivots on the scratch copy v (len(vals)). Deterministic,
// and the selected value is algorithm-independent, so any future rewrite
// keeps results bit-identical.
func kthLargest(vals []float64, k int, v []float64) float64 {
	copy(v, vals)
	target := len(v) - k // ascending rank
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return v[target]
		}
	}
	return v[target]
}

// quantizeInt8 quantizes vals with one scale per Block elements:
// scale = maxabs/127, q = stochastic-round(v/scale) clamped to ±127. Every
// element consumes exactly one draw from the stream, in ascending order.
func quantizeInt8(vals []float64, rs *roundStream) (q []int8, scales []float64) {
	n := len(vals)
	nb := (n + Block - 1) / Block
	q = make([]int8, n)
	scales = make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*Block, (b+1)*Block
		if hi > n {
			hi = n
		}
		maxabs := 0.0
		for _, v := range vals[lo:hi] {
			if a := math.Abs(v); a > maxabs {
				maxabs = a
			}
		}
		if maxabs == 0 {
			// All-zero block: scale 0, still consume the draws so stream
			// positions stay aligned with element positions.
			for i := lo; i < hi; i++ {
				rs.next()
			}
			continue
		}
		scale := maxabs / 127
		scales[b] = scale
		for i := lo; i < hi; i++ {
			x := vals[i] / scale
			f := math.Floor(x)
			if x-f > rs.next() {
				f++
			}
			if f > 127 {
				f = 127
			} else if f < -127 {
				f = -127
			}
			q[i] = int8(f)
		}
	}
	return q, scales
}
