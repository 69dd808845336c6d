// Package stats is what the benchmark comparison (scripts/ab) and the
// paper claims (experiment) decide by: the median and quartiles of a
// sample, the wins of paired values and the exact one-sided sign test.
package stats

import (
	"math"
	"sort"
)

// Median is the middle of v (the mean of the two middle values for an even
// count); NaN for no values.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(v, n=4), the spread the benchmark's own
// comparison uses. Fewer than two values have no spread.
func Quartiles(v []float64) (q1, q3 float64) {
	switch len(v) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// Wins pairs a with b and counts the pairs a wins (a[i] > b[i]) and the
// pairs they tie (a[i] == b[i]). Every other pair is a loss, a NaN on
// either side included.
func Wins(a, b []float64) (wins, ties int) {
	for i := range a {
		switch {
		case a[i] > b[i]:
			wins++
		case a[i] == b[i]:
			ties++
		}
	}
	return wins, ties
}

// SignTest is the exact one-sided sign test: P(X ≥ k) for X ~ Binomial(n,
// 1/2), the chance that k or more of n untied pairs go one side's way when
// either side wins a pair with even odds; 1 for k ≤ 0.
func SignTest(k, n int) float64 {
	// C(n, i) stays an exact integer in float64 up to n = 50.
	tail, c := 0.0, 1.0
	for i := 0; i <= n; i++ {
		if i >= k {
			tail += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Ldexp(tail, -n)
}
