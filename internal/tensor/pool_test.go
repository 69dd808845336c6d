package tensor

import "testing"

// TestPoolRecycles checks that storage handed out after a Reset reuses the
// previous cycle's slabs, and that Get's arrives zeroed.
func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	a := p.Get(100)
	for i := range a {
		a[i] = 1
	}
	b := p.GetTensorUninit(4, 25)
	b.fill(2)
	p.Reset()
	a2 := p.Get(100)
	if &a[0] != &a2[0] {
		t.Error("Get after Reset did not reuse the slab")
	}
	for i, v := range a2 {
		if v != 0 {
			t.Fatalf("recycled storage not zeroed at %d: %v", i, v)
		}
	}
	b2 := p.GetTensorUninit(4, 25)
	if &b.Data[0] != &b2.Data[0] {
		t.Error("GetTensorUninit after Reset did not reuse the slab")
	}
	if b2.Shape[0] != 4 || b2.Shape[1] != 25 {
		t.Fatalf("recycled tensor shape %v", b2.Shape)
	}
}

// TestPoolSteadyStateZeroAlloc checks that a repeated allocation pattern
// stops allocating once the slabs are sized.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool()
	cycle := func() {
		p.Reset()
		_ = p.GetTensorUninit(16, 8, 8, 8)
		_ = p.Get(3000)
		_ = p.GetTensorUninit(2, 5)
		_ = p.Get(minSlab + 1) // larger than one slab
	}
	cycle() // warm up: size the slabs
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state cycle allocates %v times per run", allocs)
	}
}

// TestPoolNilFallsBack checks nil pools behave like plain allocation.
func TestPoolNilFallsBack(t *testing.T) {
	var p *Pool
	s := p.Get(10)
	if len(s) != 10 {
		t.Fatalf("nil pool Get len %d", len(s))
	}
	tt := p.GetTensorUninit(2, 3)
	if tt.Len() != 6 {
		t.Fatalf("nil pool GetTensorUninit len %d", tt.Len())
	}
	p.Reset() // must not panic
}

// TestPoolDistinctRegions checks two Gets in one cycle never alias.
func TestPoolDistinctRegions(t *testing.T) {
	p := NewPool()
	a := p.Get(50)
	b := p.Get(50)
	a[49] = 1
	if b[0] != 0 {
		t.Fatal("pool regions alias")
	}
	for i := range b {
		b[i] = 2
	}
	if a[49] != 1 {
		t.Fatal("pool regions alias")
	}
}
