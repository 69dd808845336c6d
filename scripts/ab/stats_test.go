package main

import "testing"

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
