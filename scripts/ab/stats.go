package main

import (
	"math"

	"repro/internal/stats"
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

// wins counts the pairs whose change value beats its parent value in the
// metric's direction, strictly.
func (s summary) wins() int {
	hi, lo := s.change, s.parent
	if s.Better == "lower" {
		hi, lo = lo, hi
	}
	n, _ := stats.Wins(hi, lo)
	return n
}

// loss is the change median's relative loss against the parent median:
// positive when the change is worse, in the metric's direction.
func (s summary) loss() float64 {
	p, c := stats.Median(s.parent), stats.Median(s.change)
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
