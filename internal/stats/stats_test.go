package stats

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 4.5},
		{[]float64{7}, 7, 7, 7},
		// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
		{[]float64{1, 3}, 2, 0.5, 3.5},
	} {
		if m := Median(c.v); m != c.med {
			t.Errorf("Median(%v) = %v, want %v", c.v, m, c.med)
		}
		if q1, q3 := Quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing is a number")
	}
}

// binomTail is P(X ≥ k) for X ~ Binomial(n, 1/2), summed from the binomial
// coefficients the recurrence C(n, i) = C(n-1, i-1) + C(n-1, i) builds.
func binomTail(k, n int) float64 {
	row := []float64{1}
	for range n {
		next := make([]float64, len(row)+1)
		for i, c := range row {
			next[i] += c
			next[i+1] += c
		}
		row = next
	}
	sum := 0.0
	for i := max(k, 0); i <= n; i++ {
		sum += row[i]
	}
	return sum / math.Exp2(float64(n))
}

// TestSignTest pins the p-values of n = 1…10 untied pairs to the exact
// binomial tails, and the ones a claim over ten seeds turns on.
func TestSignTest(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 0; k <= n+1; k++ {
			if got, want := SignTest(k, n), binomTail(k, n); got != want {
				t.Errorf("SignTest(%d, %d) = %v, want %v", k, n, got, want)
			}
		}
	}
	for _, c := range []struct {
		k, n int
		p    float64
	}{
		{10, 10, 1.0 / 1024},
		{9, 10, 11.0 / 1024}, // 0.0107: holds at α = 0.05
		{8, 10, 56.0 / 1024}, // 0.0547: does not
		{5, 5, 1.0 / 32},     // the fewest untied pairs that can reach α = 0.05
		{4, 4, 1.0 / 16},     // four cannot
		{0, 0, 1},            // no untied pair decides nothing
		{0, 10, 1},
	} {
		if got := SignTest(c.k, c.n); got != c.p {
			t.Errorf("SignTest(%d, %d) = %v, want %v", c.k, c.n, got, c.p)
		}
	}
}

func TestWins(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b       []float64
		wins, ties int
	}{
		{[]float64{2, 1, 3}, []float64{1, 1, 4}, 1, 1},
		{[]float64{nan, 2, 5}, []float64{1, nan, 5}, 0, 1}, // NaN on either side loses
		{[]float64{4, 4, 4}, []float64{4, 4, 4}, 0, 3},     // all ties: n = 0
		{nil, nil, 0, 0},
	} {
		wins, ties := Wins(c.a, c.b)
		if wins != c.wins || ties != c.ties {
			t.Errorf("Wins(%v, %v) = %d, %d, want %d, %d", c.a, c.b, wins, ties, c.wins, c.ties)
		}
	}
	// All ties leave no untied pair: neither side's tail reaches α.
	wins, ties := Wins([]float64{4, 4, 4}, []float64{4, 4, 4})
	if n := 3 - ties; SignTest(wins, n) != 1 || SignTest(n-wins, n) != 1 {
		t.Errorf("all ties: p = %v, %v, want 1, 1", SignTest(wins, n), SignTest(n-wins, n))
	}
}
