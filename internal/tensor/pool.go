package tensor

// Pool is a grow-only scratch arena for the tensors a forward/backward pass
// allocates and immediately discards: activations, a convolution's patch
// panels and padded samples, gradient temporaries. Storage is carved from large reusable slabs; Reset recycles
// everything at once. After the first pass has sized the slabs, a training
// step that allocates the same sequence of scratch tensors performs zero
// heap allocation.
//
// Hand-outs differ in what the storage holds:
//
//   - Get returns zeroed storage, for buffers that are accumulated into (a
//     += destination) or only partly written (a padded sample, whose border
//     must read zero).
//   - GetUninit and GetTensorUninit return storage whose contents are
//     undefined — whatever the previous cycle left there. They are for
//     buffers whose every element the caller overwrites before reading any
//     (a patch matrix written in panels, the destination of a
//     non-accumulating GEMM, an activation output), and save the clear that
//     the overwrite makes redundant.
//   - GetView wraps existing storage and touches no data.
//
// Ownership rules:
//
//   - A Pool is owned by a single goroutine; it is not safe for concurrent
//     use. Concurrent workers (training clients, evaluators, defense
//     scorers) each own their own Pool.
//   - Storage returned by any hand-out is valid only until the next Reset.
//     Nothing that outlives a training step — parameters, gradients,
//     optimizer state, returned weight vectors — may live in a Pool.
//   - A nil *Pool is valid and falls back to plain heap allocation, so
//     pool-aware code needs no branching at call sites.
type Pool struct {
	slabs   [][]float64
	cur     int // slab currently being carved
	off     int // carve offset into slabs[cur]
	fresh   int // slabs[fresh:] were allocated this cycle and are still zero
	hdrs    []Tensor
	hdrOff  int
	dims    []int
	dimsOff int
}

// minSlab is the minimum slab size in float64s (128 KiB).
const minSlab = 1 << 14

// NewPool returns an empty scratch arena.
func NewPool() *Pool { return &Pool{} }

// Reset recycles every slab, header and shape handed out since the previous
// Reset. All previously returned storage becomes invalid.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	p.cur, p.off = 0, 0
	p.fresh = len(p.slabs)
	p.hdrOff = 0
	p.dimsOff = 0
}

// Get returns a zeroed []float64 of length n, valid until the next Reset.
// On a nil Pool it simply allocates.
func (p *Pool) Get(n int) []float64 {
	out, dirty := p.carve(n)
	if dirty {
		clear(out)
	}
	return out
}

// GetUninit is Get without the zeroing: the contents are undefined and the
// caller must overwrite every element before reading any.
func (p *Pool) GetUninit(n int) []float64 {
	out, _ := p.carve(n)
	return out
}

// carve hands out n float64s and reports whether they may hold a previous
// cycle's values (storage from make is already zero).
func (p *Pool) carve(n int) (out []float64, dirty bool) {
	if p == nil {
		return make([]float64, n), false
	}
	for p.cur < len(p.slabs) {
		s := p.slabs[p.cur]
		if len(s)-p.off >= n {
			out := s[p.off : p.off+n : p.off+n]
			p.off += n
			return out, p.cur < p.fresh
		}
		p.cur++
		p.off = 0
	}
	size := n
	if size < minSlab {
		size = minSlab
	}
	s := make([]float64, size)
	p.slabs = append(p.slabs, s)
	p.cur = len(p.slabs) - 1
	p.off = n
	return s[:n:n], false
}

// GetTensorUninit returns a tensor of the given shape whose storage,
// header and shape slice all live in the arena, valid until the next Reset.
// Its storage is GetUninit's: the caller must overwrite every element of
// Data before reading any.
func (p *Pool) GetTensorUninit(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic("tensor: Pool.GetTensorUninit invalid shape")
		}
		n *= s
	}
	if p == nil {
		// Construct inline (rather than via New) so the varargs slice does
		// not escape at pooled call sites.
		t := &Tensor{Shape: make([]int, len(shape)), Data: make([]float64, n)}
		copy(t.Shape, shape)
		return t
	}
	t := p.header()
	t.Shape = p.shape(len(shape))
	copy(t.Shape, shape)
	t.Data, _ = p.carve(n)
	return t
}

// GetView returns a tensor header of the given shape over existing storage
// (no copy). On a pooled header the view is valid until the next Reset; on
// a nil Pool it allocates a plain header.
func (p *Pool) GetView(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic("tensor: Pool.GetView shape does not match data length")
	}
	if p == nil {
		t := &Tensor{Shape: make([]int, len(shape)), Data: data}
		copy(t.Shape, shape)
		return t
	}
	t := p.header()
	t.Shape = p.shape(len(shape))
	copy(t.Shape, shape)
	t.Data = data
	return t
}

// header carves a Tensor header from the header arena. Slabs of headers are
// never reallocated, so previously returned pointers stay valid for the
// whole cycle even as the arena grows.
func (p *Pool) header() *Tensor {
	const hdrSlab = 64
	if p.hdrOff == len(p.hdrs) {
		if cap(p.hdrs) == len(p.hdrs) {
			// Replace, don't grow in place: old headers keep pointing into
			// the old backing array, which stays alive until Reset.
			old := p.hdrs
			p.hdrs = make([]Tensor, 0, len(old)*2+hdrSlab)
			p.hdrOff = 0
		}
		p.hdrs = p.hdrs[:p.hdrOff+1]
	}
	t := &p.hdrs[p.hdrOff]
	p.hdrOff++
	t.Shape, t.Data = nil, nil
	return t
}

func (p *Pool) shape(n int) []int {
	if p.dimsOff+n > len(p.dims) {
		if p.dimsOff+n > cap(p.dims) {
			old := p.dims
			p.dims = make([]int, 0, len(old)*2+256)
			p.dimsOff = 0
		}
		p.dims = p.dims[:p.dimsOff+n]
	}
	out := p.dims[p.dimsOff : p.dimsOff+n : p.dimsOff+n]
	p.dimsOff += n
	return out
}
