package main

import (
	"math"
	"sort"
)

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // the largest relative loss a change may show
}

// summary is one metric over the pairs of one workload.
type summary struct {
	metric
	parent, change []float64 // one value per pair, pair order
}

func median(v []float64) float64 {
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

// quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(v, n=4), the spread the benchmark's own
// comparison uses. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
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

// better reports whether a beats b in the metric's direction, strictly.
func (m metric) better(a, b float64) bool {
	if m.Better == "lower" {
		return a < b
	}
	return a > b
}

// wins counts the pairs whose change value beats its parent value.
func (s summary) wins() int {
	n := 0
	for i := range s.parent {
		if s.better(s.change[i], s.parent[i]) {
			n++
		}
	}
	return n
}

// loss is the change median's relative loss against the parent median:
// positive when the change is worse, in the metric's direction.
func (s summary) loss() float64 {
	p, c := median(s.parent), median(s.change)
	if p == 0 {
		if c == p {
			return 0
		}
		return math.Inf(1)
	}
	l := (c - p) / math.Abs(p)
	if s.Better == "higher" {
		l = -l
	}
	return l
}

// outOfBound reports whether the change median is worse than the bound
// allows.
func (s summary) outOfBound() bool { return s.loss() > s.Bound }
