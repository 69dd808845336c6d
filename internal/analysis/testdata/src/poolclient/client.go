// Fixture for the poolescape analyzer: every way a pooled buffer can
// outlive its arena cycle (return from the owning frame, struct-field
// store, goroutine capture, channel send) plus the sanctioned borrow
// idioms that must stay silent.
package poolclient

import "tensor"

type holder struct {
	buf []float32
	t   *tensor.Tensor
}

var pkgPool tensor.Pool

func returnOwned() []float32 {
	var p tensor.Pool
	buf := p.Get(8)
	return buf // want `function-owned tensor.Pool is returned`
}

func returnOwnedTensor() *tensor.Tensor {
	t := pkgPool.GetTensorUninit(2, 4)
	return t // want `function-owned tensor.Pool is returned`
}

func storeField(h *holder) {
	h.buf = pkgPool.Get(8) // want `stored into a struct field`
}

func goCapture() {
	buf := pkgPool.Get(8)
	go func() { // want `captured by a spawned goroutine`
		_ = buf[0]
	}()
}

func sendChan(ch chan []float32) {
	buf := pkgPool.Get(8)
	ch <- buf // want `sent on a channel`
}

// The non-clearing hand-outs are arena storage like any other: a buffer
// that survives the owner's Reset aliases the next cycle's scratch.
func returnOwnedUninit() []float32 {
	var p tensor.Pool
	buf := p.GetUninit(8)
	p.Reset()
	return buf // want `function-owned tensor.Pool is returned`
}

func storeFieldUninit(h *holder) {
	h.t = pkgPool.GetTensorUninit(2, 4) // want `stored into a struct field`
	pkgPool.Reset()
}

func goCaptureUninit() {
	t := pkgPool.GetTensorUninit(8)
	go func() { // want `captured by a spawned goroutine`
		_ = t.Data[0]
	}()
}

func (l *layer) forwardUninit(x []float32) []float32 {
	out := l.scratch.GetUninit(len(x))
	copy(out, x)
	return out
}

// borrowReturn returns scratch carved from a caller-supplied pool: the
// caller owns Reset, so the return stays inside one arena cycle.
func borrowReturn(p *tensor.Pool) []float32 {
	out := p.Get(8)
	for i := range out {
		out[i] = 0
	}
	return out
}

// layer mirrors the nn forward/backward protocol: the pool is reachable
// from the receiver, so returning its scratch is the borrow idiom.
type layer struct {
	scratch *tensor.Pool
}

func (l *layer) forward(x []float32) []float32 {
	out := l.scratch.Get(len(x))
	copy(out, x)
	return out
}

// localUse keeps the buffer inside the frame that owns the pool.
func localUse() float32 {
	var p tensor.Pool
	buf := p.Get(8)
	s := float32(0)
	for _, v := range buf {
		s += v
	}
	p.Reset()
	return s
}

// consume hands the buffer to an ordinary call, which finishes within
// this frame — not an escape.
func consume() float32 {
	var p tensor.Pool
	buf := p.Get(8)
	return sum(buf)
}

func sum(xs []float32) float32 {
	s := float32(0)
	for _, v := range xs {
		s += v
	}
	return s
}

// exempted demonstrates the //lint:allow escape hatch.
func exempted() []float32 {
	var p tensor.Pool
	buf := p.Get(8)
	return buf //lint:allow poolescape fixture exercises the exemption path
}
