package tensor

import (
	"math/rand"
	"testing"
)

// TestSqDistRowMatchesSqDistSlice pins the shared-operand kernel to the pair
// kernel: every output is == the SqDistSlice of its pair, on whichever of
// the SIMD and scalar builds runs the test. Lengths straddle the SIMD
// threshold (64), the 16-element block and the 4-element chain; partner
// counts cover every remainder mod 3; partners alias a and each other.
func TestSqDistRowMatchesSqDistSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{0, 1, 3, 4, 15, 16, 63, 64, 65, 79, 100, 1818, 4096} {
		a := make([]float64, dim)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for partners := 0; partners <= 8; partners++ {
			bs := make([][]float64, partners)
			for k := range bs {
				switch {
				case k == 1:
					bs[k] = a // distance to itself
				case k == 4:
					bs[k] = bs[3] // two partners sharing storage
				default:
					bs[k] = make([]float64, dim)
					for i := range bs[k] {
						bs[k][i] = rng.NormFloat64()
					}
				}
			}
			out := make([]float64, partners)
			SqDistRow(a, bs, out)
			for k, b := range bs {
				if want := SqDistSlice(a, b); out[k] != want {
					t.Fatalf("dim=%d partners=%d: out[%d] = %v, SqDistSlice = %v", dim, partners, k, out[k], want)
				}
			}
		}
	}
}

func TestSqDistRowPanicsOnMismatch(t *testing.T) {
	for name, call := range map[string]func(){
		"partner length": func() {
			SqDistRow(make([]float64, 8), [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 7)}, make([]float64, 3))
		},
		"output length": func() { SqDistRow(make([]float64, 8), [][]float64{make([]float64, 8)}, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}
