package codec

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
//
// EncodeInto and DecodeWireInto refill a frame in place, reusing its
// storage, so a frame with one owner — a session, an encode slot — costs
// nothing per round; whoever keeps a frame past its owner's next fill keeps
// a Clone.
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
	out := make([]float64, f.Dim)
	f.ReconstructInto(out, global)
	return out
}

// ReconstructInto writes the dense weight vector the frame encodes, given
// the round's global model, into dst (len Dim), overwriting whatever dst
// held — so one scratch vector serves any number of frames.
func (f *Frame) ReconstructInto(dst, global []float64) {
	if len(global) != f.Dim || len(dst) != f.Dim {
		panic(fmt.Sprintf("codec: Reconstruct dim %d into %d against global of %d", f.Dim, len(dst), len(global)))
	}
	if !f.IsDelta() {
		copy(dst, f.Val)
		return
	}
	copy(dst, global)
	f.AddDelta(dst)
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

// Clone returns a deep copy of the frame, sharing no storage with it: what a
// consumer keeps when the frame itself belongs to a session that refills it.
func (f *Frame) Clone() *Frame {
	return &Frame{
		Spec: f.Spec, Dim: f.Dim,
		Idx: slices.Clone(f.Idx), Val: slices.Clone(f.Val),
		Q: slices.Clone(f.Q), Scales: slices.Clone(f.Scales),
	}
}

// Encoder compresses per-client round updates under one Spec. When the spec
// enables error feedback the encoder carries each client's residual across
// rounds, so it must be reused for the whole run; without EF its only state
// is scratch. Encode and EncodeInto are not safe for concurrent use.
type Encoder struct {
	spec Spec
	res  map[int][]float64
	// delta is the work array of an encode without error feedback, kept
	// across calls; what a frame references lives in the frame (EncodeInto
	// reuses it).
	delta []float64
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

// Encode compresses one client's round update (weights trained from global)
// into a fresh frame; see EncodeInto.
func (e *Encoder) Encode(clientID, round int, global, weights []float64) *Frame {
	f := new(Frame)
	e.EncodeInto(f, clientID, round, global, weights)
	return f
}

// EncodeInto compresses one client's round update (weights trained from
// global) into f, overwriting every field and reusing f's storage: frames of
// one spec and dimension all have the same layout, so a frame refilled
// round after round allocates only on its first encode. Deterministic: the
// int8 rounding stream is keyed by (clientID, round) and consumed in
// ascending position order, and top-k selection breaks magnitude ties by
// lower index — the frame is the same whatever f held before.
func (e *Encoder) EncodeInto(f *Frame, clientID, round int, global, weights []float64) {
	dim := len(global)
	if len(weights) != dim {
		panic(fmt.Sprintf("codec: Encode weights dim %d vs global %d", len(weights), dim))
	}
	f.Spec, f.Dim = e.spec, dim
	if e.spec.Quant == Raw && e.spec.TopK == 0 {
		// Lossless dense control: ship the weights verbatim.
		f.Idx, f.Q, f.Scales = nil, nil, nil
		f.Val = scratch(&f.Val, dim)
		copy(f.Val, weights)
		return
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

	// vals is what gets quantized: the delta itself for a dense frame, its
	// kept coordinates gathered into the frame's Val for a sparse one (each
	// quantization below overwrites them in place once it has read them).
	vals := delta
	if e.spec.TopK > 0 {
		f.Idx = topKIndices(f.Idx, delta, e.spec.TopK)
		f.Val = scratch(&f.Val, len(f.Idx))
		for t, id := range f.Idx {
			f.Val[t] = delta[id]
		}
		vals = f.Val
	} else {
		f.Idx = nil
	}

	switch e.spec.Quant {
	case Raw:
		// Sparse raw: Val already holds the gather.
		f.Q, f.Scales = nil, nil
	case FP16:
		f.Val = scratch(&f.Val, len(vals))
		for i, v := range vals {
			f.Val[i] = f16ToF64(f64ToF16(v))
		}
		f.Q, f.Scales = nil, nil
	case Int8:
		f.Q = scratch(&f.Q, len(vals))
		f.Scales = scratch(&f.Scales, (len(vals)+Block-1)/Block)
		rs := newRoundStream(clientID, round)
		quantizeInt8(vals, f.Q, f.Scales, &rs)
		if f.Idx != nil {
			// Sparse int8 keeps the dequantized values alongside Q so the
			// merge geometry and AddDelta stay O(k) float operations.
			for i := range f.Val {
				f.Val[i] = f.Scales[i/Block] * float64(f.Q[i])
			}
		} else {
			f.Val = nil
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
}

// scratch returns *buf resized to n, growing it only when too small. The
// contents are unspecified.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// keepCount is the number of coordinates a top-k frame of a dim-coordinate
// model carries: ⌈frac·dim⌉, within [1, dim]. Encoder and DecodeWire share
// it, so a frame of any other size is malformed.
func keepCount(frac float64, dim int) int {
	return min(max(int(math.Ceil(frac*float64(dim))), 1), dim)
}

// magBits returns the bit pattern of |v|. Among non-negative floats the
// patterns order as the values do, so magnitudes can be ranked as integers;
// that ranking also places every NaN above +Inf, which makes top-k selection
// total — it terminates, and keeps the NaNs, on any input.
func magBits(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// topKIndices returns the ⌈frac·d⌉ largest-|v| coordinate indices in
// ascending index order. Magnitude ties break toward the lower index, so
// the selection is a pure function of the delta. The (|v| desc, index asc)
// ranking is a total order, so the kept set is unique and any selection
// algorithm yields it: exactly the coordinates whose magnitude exceeds the
// k-th largest, plus the lowest-index ones at that magnitude until k are
// chosen — one ascending pass once kthMagnitude has found the threshold.
// The indices are written over dst's storage.
func topKIndices(dst []int32, delta []float64, frac float64) []int32 {
	k := keepCount(frac, len(delta))
	t, ties := kthMagnitude(delta, k)
	idx := scratch(&dst, k)[:0]
	for i, v := range delta {
		if m := magBits(v); m > t {
			idx = append(idx, int32(i))
		} else if m == t && ties > 0 {
			idx = append(idx, int32(i))
			ties--
		}
	}
	return idx
}

// candPool lends kthMagnitude its candidate scratch. An encode is short and
// never blocks, so a process needs about one buffer per running goroutine,
// however many encoders it holds — a socket host's clients hold one each.
var candPool sync.Pool

// radixBits is the digit width of kthMagnitude's radix select: the first
// digit of a magnitude's 63 bits is exactly the float64 exponent.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// kthMagnitude returns the bit pattern t of the k-th largest magnitude of
// delta (1 ≤ k ≤ len(delta)) and how many of the coordinates whose
// magnitude equals t are among the k largest. It is an MSD radix select on
// magBits: histogram the candidates' current digit, find the bucket that
// holds rank k, keep only that bucket's members and descend one digit —
// each pass shrinks the candidates by the bucket's share (the exponent
// digit leaves about a third of a Gaussian delta, the next a handful) and
// none has a data-dependent branch to mispredict. The value is
// algorithm-independent, so frames do not depend on how it is found.
func kthMagnitude(delta []float64, k int) (t uint64, ties int) {
	var hist [1 << radixBits]int
	// The first digit is read off the delta itself: only the members of its
	// bucket are ever stored as candidates.
	shift := 63 - radixBits
	for _, v := range delta {
		hist[magBits(v)>>shift]++
	}
	digit, k := rankBucket(&hist, k)
	// The compaction below writes at most one slot past the bucket's last
	// member, so the scratch holds the bucket, not the delta.
	buf, _ := candPool.Get().(*[]uint64)
	if buf == nil {
		buf = new([]uint64)
	}
	defer candPool.Put(buf)
	cand := scratch(buf, hist[digit]+1)
	n := 0
	for _, v := range delta {
		m := magBits(v)
		cand[n] = m
		n += isDigit(m>>shift, digit)
	}
	cand = cand[:n]
	// Candidates agree on every bit from shift up. A few dozen are cheaper
	// to sort than to histogram again; with no bits left they are all equal.
	for shift > 0 && len(cand) > 32 {
		shift = max(shift-radixBits, 0)
		clear(hist[:])
		for _, m := range cand {
			hist[m>>shift&radixMask]++
		}
		digit, k = rankBucket(&hist, k)
		n = 0
		for _, m := range cand {
			cand[n] = m
			n += isDigit(m>>shift&radixMask, digit)
		}
		cand = cand[:n]
	}
	slices.Sort(cand)
	t = cand[len(cand)-k]
	above := 0
	for i := len(cand) - 1; cand[i] > t; i-- {
		above++
	}
	return t, k - above
}

// rankBucket returns the digit whose bucket holds the k-th largest of the
// histogrammed candidates, and k's rank among that bucket's members.
func rankBucket(hist *[1 << radixBits]int, k int) (digit uint64, rank int) {
	digit = radixMask
	for ; hist[digit] < k; digit-- {
		k -= hist[digit]
	}
	return digit, k
}

// isDigit is 1 if x == digit and 0 otherwise, for digits below 2^63, by
// arithmetic: kthMagnitude compacts its candidates by storing every one and
// advancing the write position by isDigit, where a conditional append would
// mispredict on a third of a Gaussian delta's coordinates.
func isDigit(x, digit uint64) int { return int((x ^ digit - 1) >> 63) }

// quantizeInt8 quantizes vals into q (len(vals)) and scales (one per Block
// elements): scale = maxabs/127, q = stochastic-round(v/scale) clamped to
// ±127. Every element consumes exactly one draw from the stream, in
// ascending order. A block holding a NaN or an infinity gets that
// non-finite magnitude as its scale and zero quantized values: it decodes
// to NaN throughout, and the wire decoder rejects the scale — a diverged
// client's update is not laundered into finite numbers.
func quantizeInt8(vals []float64, q []int8, scales []float64, rs *roundStream) {
	n := len(vals)
	for b := range scales {
		lo, hi := b*Block, (b+1)*Block
		if hi > n {
			hi = n
		}
		maxabs := 0.0
		for _, v := range vals[lo:hi] {
			if a := math.Abs(v); a > maxabs || math.IsNaN(a) { // a NaN sticks: nothing compares above it
				maxabs = a
			}
		}
		if maxabs == 0 || math.IsNaN(maxabs) || math.IsInf(maxabs, 1) {
			// All-zero block (scale 0) or non-finite block (scale Inf/NaN):
			// nothing to round, still consume the draws so stream positions
			// stay aligned with element positions.
			scales[b] = maxabs
			for i := lo; i < hi; i++ {
				q[i] = 0
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
}
