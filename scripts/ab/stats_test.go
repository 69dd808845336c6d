package main

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
		if m := median(c.v); m != c.med {
			t.Errorf("median(%v) = %v, want %v", c.v, m, c.med)
		}
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func TestWinsAndBound(t *testing.T) {
	rate := metric{Name: "rounds_per_s", Better: "higher", Bound: 0.25}
	cpu := metric{Name: "cpu_s", Better: "lower", Bound: 0.25}
	parent := []float64{10, 10, 10, 10}
	for _, c := range []struct {
		m      metric
		change []float64
		wins   int
		out    bool
	}{
		{rate, []float64{11, 12, 9, 10}, 2, false}, // a tie is no win
		{rate, []float64{8, 8, 8, 8}, 0, false},    // 20 % slower: inside 25 %
		{rate, []float64{7, 7, 7, 7}, 0, true},     // 30 % slower
		{cpu, []float64{9, 9, 13, 9}, 3, false},
		{cpu, []float64{13, 13, 12, 13}, 0, true}, // 30 % more CPU
		{cpu, []float64{12.5, 12.5, 12.5, 12.5}, 0, false},
	} {
		s := summary{metric: c.m, parent: parent, change: c.change}
		if w := s.wins(); w != c.wins {
			t.Errorf("%s %v: %d wins, want %d", c.m.Name, c.change, w, c.wins)
		}
		if o := s.outOfBound(); o != c.out {
			t.Errorf("%s %v: out of bound %v (loss %.3f), want %v", c.m.Name, c.change, o, s.loss(), c.out)
		}
	}
}
