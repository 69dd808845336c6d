package attack

import (
	"testing"

	"repro/internal/fl"
)

// TestGammaSearchAllocsFlatInSteps: MinMax and MinSum refill one candidate
// per Craft, so a Craft's allocation count does not grow with the number
// of γ-search steps — GammaInit 10 takes about 17 of them, 10⁶ about 34.
func TestGammaSearchAllocsFlatInSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	ctx := benchCtx(64, 8)
	for _, pair := range [][2]fl.Attack{
		{MinMax{GammaInit: 10}, MinMax{GammaInit: 1e6}},
		{MinSum{GammaInit: 10}, MinSum{GammaInit: 1e6}},
	} {
		var allocs [2]float64
		for i, a := range pair {
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := a.Craft(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: a Craft allocates %v times with GammaInit 10, %v with 10⁶, want the same", pair[0].Name(), allocs[0], allocs[1])
		}
	}
}
