package tensor

import "testing"

func TestSqDistTilePanicsOnMismatch(t *testing.T) {
	v8, v7 := make([]float64, 8), make([]float64, 7)
	for name, call := range map[string]func(){
		"partner length": func() {
			SqDistTile([][]float64{v8}, [][]float64{v8, v8, v7}, [][]float64{make([]float64, 3)}, false)
		},
		"row length": func() {
			SqDistTile([][]float64{v8, v7}, [][]float64{v8}, [][]float64{make([]float64, 1), make([]float64, 1)}, false)
		},
		"output rows":   func() { SqDistTile([][]float64{v8}, [][]float64{v8}, nil, false) },
		"diagonal tile": func() { SqDistTile([][]float64{v8, v8}, [][]float64{v8}, make([][]float64, 2), true) },
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
