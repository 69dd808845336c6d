// Fixture arena: a miniature tensor.Pool with the same hand-out surface
// as the real one. The poolescape analyzer matches the receiver type by
// package name + type name, so this package stands in for the real arena;
// it is also itself exempt (the arena implements the arena).
package tensor

type Tensor struct {
	Data  []float32
	Shape []int
}

type Pool struct {
	arena []float32
}

func (p *Pool) Get(n int) []float32 {
	if p == nil {
		return make([]float32, n)
	}
	start := len(p.arena)
	p.arena = append(p.arena, make([]float32, n)...)
	return p.arena[start : start+n : start+n]
}

// GetUninit and GetTensorUninit mirror the real arena's non-clearing
// hand-outs; the analyzer tells hand-outs apart by name only.
func (p *Pool) GetUninit(n int) []float32 { return p.Get(n) }

func (p *Pool) GetTensorUninit(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{Data: p.Get(n), Shape: shape}
}

func (p *Pool) GetView(data []float32, shape ...int) *Tensor {
	return &Tensor{Data: data, Shape: shape}
}

func (p *Pool) Reset() {
	if p != nil {
		p.arena = p.arena[:0]
	}
}
